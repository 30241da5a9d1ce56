package csecg_test

import (
	"fmt"
	"log"

	"csecg"
)

// ExampleNewEncoder shows the minimal compress → wire → reconstruct
// round trip.
func ExampleNewEncoder() {
	params := csecg.Params{Seed: 42, M: csecg.MForCR(50, csecg.WindowSize)}
	enc, err := csecg.NewEncoder(params)
	if err != nil {
		log.Fatal(err)
	}
	dec, err := csecg.NewDecoder32(params)
	if err != nil {
		log.Fatal(err)
	}
	rec, err := csecg.RecordByID("100")
	if err != nil {
		log.Fatal(err)
	}
	samples, err := rec.Channel256(2, 0)
	if err != nil {
		log.Fatal(err)
	}
	pkt, err := enc.EncodeWindow(samples[:csecg.WindowSize])
	if err != nil {
		log.Fatal(err)
	}
	wire, err := csecg.MarshalPacket(pkt)
	if err != nil {
		log.Fatal(err)
	}
	rx, _, err := csecg.UnmarshalPacket(wire)
	if err != nil {
		log.Fatal(err)
	}
	out, err := dec.DecodePacket(rx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("first packet is a key frame:", pkt.Kind == csecg.KindKey)
	fmt.Println("wire smaller than raw:", len(wire) < csecg.WindowSize*12/8)
	fmt.Println("reconstructed samples:", len(out.Samples))
	// Output:
	// first packet is a key frame: true
	// wire smaller than raw: true
	// reconstructed samples: 512
}

// ExampleMForCR converts a target compression ratio to a measurement
// count.
func ExampleMForCR() {
	fmt.Println(csecg.MForCR(50, csecg.WindowSize))
	fmt.Println(csecg.MForCR(75, csecg.WindowSize))
	// Output:
	// 256
	// 128
}

// ExampleSNR relates the paper's two quality metrics.
func ExampleSNR() {
	fmt.Printf("%.0f dB\n", csecg.SNR(1))  // 1% PRD
	fmt.Printf("%.0f dB\n", csecg.SNR(10)) // 10% PRD
	// Output:
	// 40 dB
	// 20 dB
}

// ExampleRunStream runs a complete monitored session through the
// platform models.
func ExampleRunStream() {
	rep, err := csecg.RunStream(csecg.StreamConfig{
		RecordID: "100",
		Seconds:  10,
		Params:   csecg.Params{Seed: 9, M: csecg.MForCR(50, csecg.WindowSize)},
		Mode:     csecg.ModeNEON,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("windows:", rep.Windows)
	fmt.Println("mote under 5% CPU:", rep.MoteCPU < 0.05)
	fmt.Println("lifetime extended:", rep.Extension > 0)
	// Output:
	// windows: 5
	// mote under 5% CPU: true
	// lifetime extended: true
}
