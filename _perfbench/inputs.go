package main

import (
	"fmt"
	"math/rand"

	"csecg/internal/core"
	"csecg/internal/ecg"
)

// A run draws one record from each stratum of the 48-record substitute
// database. The strata pair records of like decode cost and like
// reconstruction quality: the records were ranked by mean decode time
// per warm window, cut into six cost bands of eight, and each band
// ranked by mean PRDN and cut into four pairs (29 warm windows of the
// first channel per record, measured at CR 50 and at CR 80). So every
// run mixes cheap and expensive, clean and arrhythmic records in the
// same proportion, and its figures move with the code rather than with
// the luck of the draw.
var (
	strataCR50 = [][2]string{
		{"123", "117"}, {"113", "115"}, {"124", "114"}, {"116", "121"},
		{"231", "107"}, {"103", "118"}, {"100", "122"}, {"112", "102"},
		{"119", "106"}, {"220", "232"}, {"214", "201"}, {"111", "212"},
		{"230", "202"}, {"101", "205"}, {"109", "228"}, {"104", "105"},
		{"217", "219"}, {"233", "210"}, {"234", "213"}, {"207", "108"},
		{"223", "221"}, {"208", "200"}, {"209", "222"}, {"215", "203"},
	}
	strataCR80 = [][2]string{
		{"124", "123"}, {"117", "113"}, {"115", "111"}, {"230", "105"},
		{"231", "114"}, {"121", "108"}, {"100", "122"}, {"112", "233"},
		{"232", "102"}, {"207", "221"}, {"104", "109"}, {"210", "234"},
		{"220", "201"}, {"202", "228"}, {"101", "219"}, {"209", "212"},
		{"118", "107"}, {"106", "103"}, {"116", "205"}, {"203", "213"},
		{"119", "223"}, {"217", "200"}, {"214", "208"}, {"222", "215"},
	}
)

// maxOffsetWindows bounds the seed-chosen start of a stream within its
// record.
const maxOffsetWindows = 60

// A stream is one session's input: consecutive windows of one record's
// first channel, replayed on every pass of the session.
type stream struct {
	record  string
	offset  int // start, in windows from the beginning of the record
	windows [][]int16
	// linkSeed seeds the session's simulated radio links. It depends on
	// the session's place only: every seed meets the same channel, so
	// lossy-cr80's loss bursts and recoveries do not swing with the luck
	// of one run's channel draw.
	linkSeed uint64
}

// pickStreams makes one stream of the given number of windows per
// stratum from the seed: a record of the stratum and a start offset
// within it.
func pickStreams(seed int64, strata [][2]string, windows int) ([]stream, error) {
	rnd := rand.New(rand.NewSource(seed))
	out := make([]stream, len(strata))
	for i, pair := range strata {
		id := pair[rnd.Intn(len(pair))]
		rec, err := ecg.RecordByID(id)
		if err != nil {
			return nil, err
		}
		offset := rnd.Intn(maxOffsetWindows)
		seconds := float64((offset + windows) * core.WindowSeconds)
		samples, err := rec.Channel256(seconds, 0)
		if err != nil {
			return nil, fmt.Errorf("synthesizing record %s: %w", id, err)
		}
		s := stream{record: id, offset: offset, linkSeed: uint64(i + 1)}
		for w := 0; w < windows; w++ {
			start := (offset + w) * core.WindowSize
			if start+core.WindowSize > len(samples) {
				return nil, fmt.Errorf("record %s: %d samples, too short for window %d", id, len(samples), offset+w)
			}
			s.windows = append(s.windows, samples[start:start+core.WindowSize])
		}
		out[i] = s
	}
	return out, nil
}
