// Machine-readable benchmark output: `paperbench -json` writes every
// row of the paper's tables and of the host-timed matrix into one
// BENCH_<timestamp>.json document, so the performance trajectory is
// trackable across commits and cmd/benchcheck can judge it.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// ReportSchema versions the JSON layout; bump on incompatible change.
// Schemas 2–6 grew one bespoke section per experiment, each a
// best-of-3 point. 7 replaces them all with one list of rows, each the
// median and quartiles of its samples (see harness.go).
const ReportSchema = 7

// Report is the whole document.
type Report struct {
	Schema    int    `json:"schema"`
	Timestamp string `json:"timestamp"` // RFC 3339, UTC
	GoVersion string `json:"go_version"`
	// GOMAXPROCS is the core budget the matrix ran under: the ceiling
	// of scaling/parallel_speedup is min(goroutines, GOMAXPROCS).
	GOMAXPROCS int   `json:"gomaxprocs"`
	Packets    int   `json:"packets"`
	Trials     int   `json:"trials"`
	Rows       []Row `json:"rows"`
}

// Row returns the named row.
func (r *Report) Row(name string) (Row, bool) {
	for _, row := range r.Rows {
		if row.Name == name {
			return row, true
		}
	}
	return Row{}, false
}

// BuildReport runs Table 1 (with its stage split and certificate
// sizes), Figure 8 over an n-packet trace, the checksum experiment and
// the whole host-timed matrix over the same trace, and assembles the
// document. now is injected so runs are reproducible in tests.
func BuildReport(n int, now time.Time) (*Report, error) {
	rep := &Report{
		Schema:     ReportSchema,
		Timestamp:  now.UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Packets:    n,
		Trials:     Trials,
	}

	t1, err := Table1()
	if err != nil {
		return nil, fmt.Errorf("table1: %w", err)
	}
	for _, r := range t1 {
		rep.Rows = append(rep.Rows, r.rows()...)
	}

	f8, err := Fig8(n)
	if err != nil {
		return nil, fmt.Errorf("fig8: %w", err)
	}
	for _, r := range f8 {
		for _, a := range Approaches {
			rep.Rows = append(rep.Rows, count(fmt.Sprintf("fig8/%s/%s", rowKey(r.Filter), a),
				"machine", "us/pkt", r.Micros[a]))
		}
	}

	cs, err := Checksum(min(n, 2000))
	if err != nil {
		return nil, fmt.Errorf("checksum: %w", err)
	}
	rep.Rows = append(rep.Rows,
		count("checksum/instructions", "pcc", "instrs", float64(cs.Instructions)),
		count("checksum/loop_instructions", "pcc", "instrs", float64(cs.LoopInstrs)),
		count("checksum/binary_bytes", "pccbin", "B", float64(cs.BinarySize)),
		count("checksum/validation_us", "pcc", "us", float64(cs.Validation.Nanoseconds())/1e3),
		count("checksum/speedup_vs_c", "machine", "x", cs.SpeedupVsC))

	m, err := Matrix(n)
	if err != nil {
		return nil, fmt.Errorf("matrix: %w", err)
	}
	rep.Rows = append(rep.Rows, m...)
	return rep, nil
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReportFilename names the output document: BENCH_<UTC timestamp>.json,
// sortable and collision-free at second granularity.
func ReportFilename(now time.Time) string {
	return "BENCH_" + now.UTC().Format("20060102T150405Z") + ".json"
}
