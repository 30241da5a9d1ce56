package experiments

import (
	"fmt"

	"csecg"
	"csecg/internal/metrics"
)

// TransportRow is one (burst severity, transport mode) operating point.
type TransportRow struct {
	// MeanLossPct is the channel's stationary loss rate.
	MeanLossPct float64
	// Mode is "wait-for-key" or "nack".
	Mode string
	// Coverage is the fraction of windows reconstructed.
	Coverage float64
	// Gaps and LongestOutage summarize the stall episodes; MeanRecovery
	// is the mean gap-recovery latency in windows.
	Gaps, LongestOutage int
	MeanRecovery        float64
	// Retransmits counts ring hits the mote served; AirtimeMs is the
	// radio-on time per window including retransmissions.
	Retransmits int64
	AirtimeMs   float64
	// Corrupted counts frames the checksum rejected; Resyncs the
	// key-frame resynchronizations after a gap.
	Corrupted int64
	Resyncs   int
}

// TransportResult compares the wait-for-key-frame baseline against
// NACK-driven resync across burst-loss severities.
type TransportResult struct {
	Rows []TransportRow
}

// Transport sweeps a Gilbert–Elliott burst channel from light to severe
// loss and runs each operating point twice: once riding out losses
// until the next scheduled key frame (the paper's implicit behavior
// over reliable Bluetooth) and once with the NACK/retransmission
// protocol and the mote's bounded ring.
func Transport(opt Options) (*TransportResult, error) {
	opt = opt.withDefaults()
	seconds := opt.SecondsPerRecord * 4
	if seconds < 120 {
		seconds = 120
	}
	channels := []csecg.BurstConfig{
		{PGoodBad: 0.02, PBadGood: 0.60}, // light: ~3% loss, short bursts
		{PGoodBad: 0.06, PBadGood: 0.50}, // moderate: ~11% loss
		{PGoodBad: 0.10, PBadGood: 0.30}, // severe: 25% loss, long bursts
	}
	res := &TransportResult{}
	for _, burst := range channels {
		b := burst
		for _, nack := range []bool{false, true} {
			cfg := csecg.StreamConfig{
				RecordID: opt.Records[0],
				Seconds:  seconds,
				Params: csecg.Params{
					Seed: 0x7A4,
					M:    metrics.MForCR(50, csecg.WindowSize),
				},
				Mode: csecg.ModeNEON,
			}
			cfg.Link = csecg.DefaultLinkConfig()
			cfg.Link.Burst = &b
			// A touch of post-CRC corruption keeps the checksum-reject
			// path visible in the table.
			cfg.Link.BitFlipProb = 0.0002
			cfg.Link.Seed = 0xC4A7
			cfg.Transport = csecg.TransportConfig{NACK: nack}
			mode := "wait-for-key"
			if nack {
				mode = "nack"
			}
			cfg.Metrics = opt.Metrics
			cfg.Spans = opt.Trace.Session(fmt.Sprintf("transport %s, %.1f%% loss", mode, b.StationaryLoss()*100))
			rep, err := csecg.RunStream(cfg)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, TransportRow{
				MeanLossPct:   b.StationaryLoss() * 100,
				Mode:          mode,
				Coverage:      float64(rep.Decoded) / float64(rep.Windows),
				Gaps:          rep.Transport.Gaps,
				LongestOutage: rep.Transport.LongestOutage,
				MeanRecovery:  rep.Transport.MeanRecovery(),
				Retransmits:   rep.Retransmits,
				AirtimeMs:     rep.AirtimePerWindow.Seconds() * 1e3,
				Corrupted:     rep.LinkStats.Corrupted,
				Resyncs:       rep.Transport.Resyncs,
			})
		}
	}
	return res, nil
}

// Table renders the result.
func (r *TransportResult) Table() *Table {
	t := &Table{
		Title:  "Extension — fault-tolerant transport on a Gilbert–Elliott burst channel (CR=50)",
		Note:   "NACK resync buys coverage for retransmission airtime; the baseline waits for the scheduled key frame",
		Header: []string{"mean loss (%)", "mode", "coverage (%)", "gaps", "longest outage (win)", "mean recovery (win)", "retransmits", "corrupted", "resyncs", "airtime/win (ms)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			f1(row.MeanLossPct), row.Mode,
			f1(row.Coverage * 100),
			fmt.Sprintf("%d", row.Gaps),
			fmt.Sprintf("%d", row.LongestOutage),
			f2(row.MeanRecovery),
			fmt.Sprintf("%d", row.Retransmits),
			fmt.Sprintf("%d", row.Corrupted),
			fmt.Sprintf("%d", row.Resyncs),
			f2(row.AirtimeMs),
		})
	}
	return t
}
