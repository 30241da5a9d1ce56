// Command csecg-replay deterministically re-executes diagnostics
// bundles sealed by the black-box flight recorder: it reconstructs the
// decoder stack from the bundle's session metadata, feeds the captured
// post-CRC frames back through the real transport receiver and solver
// on an injected clock, and diffs every re-decoded window against the
// recorded summaries.
//
// Complete bundles (full session history) must reproduce bit-for-bit;
// bundles whose ring wrapped are resumed mid-stream and compared on
// the solver-determined fields only. Bundles marked unreproducible
// (e.g. chaos slowdown injection) are skipped unless -strict.
//
// Usage:
//
//	csecg-replay bundle.jsonl [more.jsonl...]
//	csecg-replay -v bundle.jsonl       # print each divergence
//	csecg-replay -strict bundles/*.jsonl
//
// Exit status: 0 when every bundle replays clean, 1 on any divergence
// (or, with -strict, any skipped bundle), 2 on usage/parse errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"csecg"
)

func main() {
	var (
		verbose = flag.Bool("v", false, "print every divergence, not just the summary line")
		strict  = flag.Bool("strict", false, "fail on bundles that were skipped as unreproducible")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: csecg-replay [-v] [-strict] bundle.jsonl...")
		os.Exit(2)
	}

	exit := 0
	for _, path := range flag.Args() {
		b, err := csecg.ReadBundle(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "csecg-replay: %s: %v\n", path, err)
			os.Exit(2)
		}
		rep, err := csecg.ReplayBundle(b)
		if err != nil {
			fmt.Fprintf(os.Stderr, "csecg-replay: %s: %v\n", path, err)
			os.Exit(2)
		}
		switch {
		case rep.Skipped:
			fmt.Printf("%s: SKIP session=%s cause=%s (%s)\n", path, rep.Session, rep.Cause, rep.SkipReason)
			if *strict {
				exit = 1
			}
		case rep.OK():
			mode := "wrapped"
			if rep.Complete {
				mode = "complete"
			}
			fmt.Printf("%s: OK session=%s cause=%s mode=%s windows=%d compared=%d\n",
				path, rep.Session, rep.Cause, mode, rep.Windows, rep.Compared)
		default:
			fmt.Printf("%s: DIVERGED session=%s cause=%s compared=%d missing=%d divergences=%d\n",
				path, rep.Session, rep.Cause, rep.Compared, rep.Missing, len(rep.Divergences))
			if *verbose {
				for _, d := range rep.Divergences {
					fmt.Printf("  ordinal=%d seq=%d field=%s want=%s got=%s\n",
						d.Ordinal, d.Seq, d.Field, d.Want, d.Got)
				}
			}
			exit = 1
		}
	}
	os.Exit(exit)
}
