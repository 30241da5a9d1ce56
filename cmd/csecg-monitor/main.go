// Command csecg-monitor serves the fleet observability plane: it
// streams one or more records through the full mote→link→coordinator
// pipeline (optionally over a bursty channel with the NACK protocol)
// and exposes live status over HTTP while they run —
//
//	/metrics   Prometheus text, every session labeled
//	/healthz   process liveness
//	/readyz    503 until every live coordinator is keyed and decoding
//	/sessions  per-stream JSON: quality estimates, transport, SLOs
//
// plus net/http/pprof under /debug/pprof/.
//
// Usage:
//
//	csecg-monitor -records 100,213 -seconds 60 -cr 50
//	csecg-monitor -records 100 -burst 0.05 -nack -slo-events slo.jsonl -once
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"sync"

	"csecg"
	"csecg/internal/monitor"
)

// syncWriter serializes JSONL appends from concurrent sessions.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//csecg:lockok serializing this write is the type's entire purpose
	return s.w.Write(p)
}

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:9102", "HTTP listen address (use :0 for an ephemeral port)")
		records   = flag.String("records", "100", "comma-separated substitute-database record IDs to stream")
		seconds   = flag.Float64("seconds", 60, "seconds of signal per session")
		cr        = flag.Float64("cr", 50, "CS compression ratio")
		seed      = flag.Uint("seed", 0x601, "sensing-matrix seed")
		burst     = flag.Float64("burst", 0, "Gilbert–Elliott good→bad transition probability (0 = clean link)")
		recovery  = flag.Float64("burst-recovery", 0.4, "Gilbert–Elliott bad→good transition probability")
		nack      = flag.Bool("nack", false, "enable the NACK control channel and retransmission")
		sloEvents = flag.String("slo-events", "", "append SLO alert transitions as JSONL to this file ('-' for stdout)")
		spansOut  = flag.String("spans-out", "", "write the retained causal span trees of every session as trace JSONL to this file (csecg-triage input)")
		noSpans   = flag.Bool("no-spans", false, "disable causal span tracing (drops trace IDs from /sessions and the stage-seconds exemplars from /metrics)")
		recordDir = flag.String("record-dir", "", "attach a black-box flight recorder per session and seal diagnostics bundles into this directory (also enables POST /debug/bundle)")
		once      = flag.Bool("once", false, "exit after every session finishes instead of serving forever")
	)
	flag.Parse()

	var sink io.Writer
	if *sloEvents != "" {
		f := os.Stdout
		if *sloEvents != "-" {
			var err error
			if f, err = os.Create(*sloEvents); err != nil {
				fail(err)
			}
			defer f.Close() //csecg:errok event log, flushed per line
		}
		sink = &syncWriter{w: f}
	}

	srv := monitor.NewServer(nil)
	var wg sync.WaitGroup
	var run []func()
	var tracers []*csecg.SpanTracer
	for _, rec := range strings.Split(*records, ",") {
		rec = strings.TrimSpace(rec)
		if rec == "" {
			continue
		}
		reg := csecg.NewMetrics()
		var recorder *csecg.FlightRecorder
		if *recordDir != "" {
			recorder = csecg.NewFlightRecorder(csecg.FlightRecorderConfig{
				Session: "record-" + rec,
				Sink:    csecg.BundleDirSink(*recordDir),
			})
		}
		var spans *csecg.SpanTracer
		if !*noSpans {
			spans = csecg.NewSpanTracer(csecg.SpanTracerConfig{Label: "record " + rec})
			tracers = append(tracers, spans)
		}
		ses := monitor.NewSession(monitor.SessionConfig{
			Name:     "record " + rec,
			Registry: reg,
			Recorder: recorder,
			Spans:    spans,
		}, sink)
		srv.Attach(ses)
		wg.Add(1)
		recID := rec
		run = append(run, func() {
			defer wg.Done()
			defer ses.Finish()
			lnk := csecg.DefaultLinkConfig()
			if *burst > 0 {
				lnk.Burst = &csecg.BurstConfig{PGoodBad: *burst, PBadGood: *recovery}
				lnk.Seed = uint64(*seed)
			}
			rep, err := csecg.RunStream(csecg.StreamConfig{
				RecordID:  recID,
				Seconds:   *seconds,
				Params:    csecg.Params{Seed: uint16(*seed), M: csecg.MForCR(*cr, csecg.WindowSize)},
				Link:      lnk,
				Transport: csecg.TransportConfig{NACK: *nack},
				Metrics:   reg,
				Observer:  ses,
				Recorder:  recorder,
				Spans:     spans,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "csecg-monitor: record %s: %v\n", recID, err)
				return
			}
			fmt.Printf("record %s done: %d windows, %d lost, %d est-bad, mean est PRDN %.2f%% (true %.2f%%), %d gaps, %d bundles\n",
				recID, rep.Windows, rep.Lost, rep.BadWindows, rep.MeanEstPRDN, rep.MeanPRDN, rep.Transport.Gaps, rep.BundlesWritten)
		})
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fail(err)
	}
	fmt.Printf("csecg-monitor listening on http://%s (/metrics /healthz /readyz /sessions)\n", ln.Addr())
	httpSrv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	for _, r := range run {
		go r()
	}
	wg.Wait()
	if *spansOut != "" {
		var recs []csecg.SpanTraceRecord
		var dropped int64
		for _, t := range tracers {
			recs = append(recs, t.Records()...)
			dropped += t.RetainDropped()
		}
		f, err := os.Create(*spansOut)
		if err != nil {
			fail(err)
		}
		if err := csecg.WriteSpanTraceJSONL(f, recs); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d retained span trees to %s (%d dropped past the retention cap)\n", len(recs), *spansOut, dropped)
	}
	if !*once {
		fmt.Println("all sessions finished; serving final state (ctrl-c to exit)")
		if err := <-serveErr; err != nil && err != http.ErrServerClosed {
			fail(err)
		}
		return
	}
	// Drain before closing: refuse new scrape/bundle work, then wait for
	// in-flight handlers and bundle writes to land on disk.
	srv.BeginDrain()
	srv.WaitIdle()
	if err := httpSrv.Close(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "csecg-monitor: %v\n", err)
	os.Exit(1)
}
