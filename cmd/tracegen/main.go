// Command tracegen writes the synthetic Ethernet trace used by the
// experiments as a pcap capture, inspectable with tcpdump/wireshark
// and replayable through pccload.
//
// Usage:
//
//	tracegen -n 200000 -seed 1996 -o trace.pcap [-export DIR]
//
// With -export DIR, the trace is additionally replayed through an
// instrumented kernel and its event log (spans, audit records and
// flight events) is written to DIR/events.jsonl, selectable offline by
// the shared EventID.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/pktgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	n := flag.Int("n", 200000, "number of packets")
	seed := flag.Uint64("seed", 1996, "trace seed")
	out := flag.String("o", "trace.pcap", "output pcap file")
	ipShare := flag.Int("ip", 0, "IPv4 share in per-mille (0 = default 800)")
	export := flag.String("export", "", "also replay the trace through an instrumented kernel and write its event log (events.jsonl) into this directory")
	flag.Parse()

	pkts := pktgen.Generate(*n, pktgen.Config{Seed: *seed, IPPerMille: *ipShare})
	if *export != "" {
		if err := os.MkdirAll(*export, 0o755); err != nil {
			log.Fatal(err)
		}
		if err := exportStreams(*export, pkts); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("exported the event log (events.jsonl) to %s\n", *export)
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	w := bufio.NewWriter(f)
	if err := pktgen.WritePcap(w, pkts); err != nil {
		log.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	var bytes int
	for _, p := range pkts {
		bytes += p.Len()
	}
	fmt.Printf("wrote %s: %d packets, %d bytes of frames (seed %d)\n",
		*out, len(pkts), bytes, *seed)
}
