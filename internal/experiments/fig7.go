package experiments

import (
	"time"

	"csecg/internal/coordinator"
	"csecg/internal/core"
	"csecg/internal/metrics"
)

// Fig7Point is one (CR, iterations, time) sample.
type Fig7Point struct {
	CR             float64
	MeanIterations float64
	MeanTime       time.Duration
	Deadline       bool
}

// Fig7Result reproduces Fig. 7: average FISTA iteration count and
// average reconstruction time per 2-second packet on the NEON-optimized
// coordinator, across compression ratios.
type Fig7Result struct {
	Points []Fig7Point
}

// Fig7 runs the experiment on the real pipeline with the modeled
// Cortex-A8 clock. The paper reads 600-900 iterations and 0.34-0.46 s
// per packet over CR 30-70, all inside the 1-second real-time budget.
func Fig7(opt Options) (*Fig7Result, error) {
	opt = opt.withDefaults()
	res := &Fig7Result{}
	for cr := 30.0; cr <= 70.0; cr += 10 {
		p := core.Params{Seed: 0x0F17, M: metrics.MForCR(cr, core.WindowSize)}
		type recordCost struct {
			iters   int64
			modeled time.Duration
			count   int64
		}
		results, err := forEachRecord(opt.Records, func(id string) (recordCost, error) {
			var acc recordCost
			enc, err := core.NewEncoder(p)
			if err != nil {
				return acc, err
			}
			dec, err := coordinator.NewRealTimeDecoder(p, coordinator.NEON)
			if err != nil {
				return acc, err
			}
			wins, err := windows256(id, opt.SecondsPerRecord, enc.Params().N)
			if err != nil {
				return acc, err
			}
			for _, win := range wins {
				pkt, err := enc.EncodeWindow(win)
				if err != nil {
					return acc, err
				}
				out, err := dec.Decode(pkt)
				if err != nil {
					return acc, err
				}
				acc.iters += int64(out.Iterations)
				acc.modeled += out.ModeledTime
				acc.count++
			}
			return acc, nil
		})
		if err != nil {
			return nil, err
		}
		var iters, count int64
		var modeled time.Duration
		for _, r := range results {
			iters += r.iters
			modeled += r.modeled
			count += r.count
		}
		mean := float64(iters) / float64(count)
		meanTime := modeled / time.Duration(count)
		res.Points = append(res.Points, Fig7Point{
			CR:             cr,
			MeanIterations: mean,
			MeanTime:       meanTime,
			Deadline:       meanTime <= coordinator.RealTimeBudget(p),
		})
	}
	return res, nil
}

// Table renders the result.
func (r *Fig7Result) Table() *Table {
	t := &Table{
		Title:  "Fig. 7 — Mean FISTA iterations and reconstruction time per 2 s packet vs CR",
		Note:   "NEON-optimized decoder, modeled Cortex-A8 @ 600 MHz; budget 1 s per packet",
		Header: []string{"CR (%)", "iterations", "time (s)", "within budget"},
	}
	for _, p := range r.Points {
		ok := "yes"
		if !p.Deadline {
			ok = "NO"
		}
		t.Rows = append(t.Rows, []string{
			f1(p.CR), f1(p.MeanIterations), f2(p.MeanTime.Seconds()), ok,
		})
	}
	return t
}
