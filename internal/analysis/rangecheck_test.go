package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// satQ15RE matches the whole satQ15 function of the fixedpoint fixture.
var satQ15RE = regexp.MustCompile(`(?s)func satQ15\(s int32\) Q15 \{.*?\n\}`)

// loadFixedpointVariant copies the testdata/src/fixedpoint fixture
// (optionally mutated) into a temp package and runs rangecheck over it.
func loadFixedpointVariant(t *testing.T, mutate func(string) string) []Diagnostic {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "src", "fixedpoint", "fixedpoint.go"))
	if err != nil {
		t.Fatal(err)
	}
	code := string(src)
	if mutate != nil {
		code = mutate(code)
	}
	return runRangeCheckSource(t, "fixedpointvariant", code)
}

// runRangeCheckSource type-checks code as the single file of a device
// package with import path ip and runs rangecheck over it.
func runRangeCheckSource(t *testing.T, ip, code string) []Diagnostic {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ip+".go"), []byte(code), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, fset, err := LoadDir(dir, ip)
	if err != nil {
		t.Fatalf("type-checking %s: %v", ip, err)
	}
	return RunPackage(fset, pkg, Config{DevicePackages: []string{ip}}, []*Analyzer{RangeCheck})
}

// TestScratchControl is the control for the loop-exit soundness cases in
// testdata/src/rangecheck: an unbounded accumulation in a plain loop, with
// no switch, continue or fallthrough in the way, must report int16
// overflow when loaded as a standalone device package.
func TestScratchControl(t *testing.T) {
	diags := runRangeCheckSource(t, "scratchpkg", `package scratchpkg

func F(n int) int16 {
	var acc int16
	for i := 0; i < n; i++ {
		acc += 1000
	}
	return acc
}
`)
	found := false
	for _, d := range diags {
		if d.Analyzer == "rangecheck" && strings.Contains(d.Message, "int16 addition may wrap") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected an int16 overflow finding on the plain-loop accumulator, got: %v", diags)
	}
}

// TestFixedpointProvesClean pins the ISSUE's core soundness claim: the
// saturation clamps in the fixedpoint fixture are themselves the proof.
// rangecheck must find nothing there without a single waiver.
func TestFixedpointProvesClean(t *testing.T) {
	for _, d := range loadFixedpointVariant(t, nil) {
		t.Errorf("unexpected finding on unmodified fixedpoint: %s", d)
	}
}

// TestFixedpointClampRemovalDetected is the negative control: deleting
// the satQ15 saturation clamp must make rangecheck fail. This is what
// distinguishes a proof from a lint — the analyzer passes because the
// clamp is there, not because the file is waived.
func TestFixedpointClampRemovalDetected(t *testing.T) {
	diags := loadFixedpointVariant(t, func(code string) string {
		mutated := satQ15RE.ReplaceAllString(code, "func satQ15(s int32) Q15 {\n\treturn Q15(s)\n}")
		if mutated == code {
			t.Fatal("satQ15 clamp pattern not found; update satQ15RE alongside fixedpoint.go")
		}
		return mutated
	})
	if len(diags) == 0 {
		t.Fatal("rangecheck found nothing after the satQ15 clamp was deleted")
	}
	found := false
	for _, d := range diags {
		if d.Analyzer == "rangecheck" && strings.Contains(d.Message, "may truncate") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a truncation finding on the unclamped Q15 conversion, got: %v", diags)
	}
}
