//go:build ignore

// gen_default_tables writes default_tables.go, the exact float64 bits of
// NewTableSet(circuit.DefaultParams()): the offline step that precedes
// programming the table into the module's SPD ROM (Section 6.3). Rerun
// `go generate ./internal/timing` after changing the circuit model, the
// calibration or the table generator.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"math"
	"os"

	"ladder/internal/circuit"
	"ladder/internal/timing"
)

func main() {
	ts, err := timing.NewTableSet(circuit.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	var b bytes.Buffer
	b.WriteString("// Code generated by gen_default_tables.go; DO NOT EDIT.\n\npackage timing\n\nimport \"math\"\n\n")
	b.WriteString("// NewTableSet(circuit.DefaultParams()) as exact float64 bits (see DefaultTableSet).\n")
	m := ts.Model
	fmt.Fprintf(&b, "var defaultModel = Model{C: %s, K: %s, MinNs: %s, MaxNs: %s}\n", lit(m.C), lit(m.K), lit(m.MinNs), lit(m.MaxNs))
	writeTable(&b, "defaultWL", ts.WL)
	writeTable(&b, "defaultBL", ts.BL)
	writeTable(&b, "defaultHalf", ts.Half)
	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("default_tables.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
}

// writeTable emits t as a Table literal, one content row per line.
func writeTable(b *bytes.Buffer, name string, t *timing.Table) {
	content := [...]string{timing.WLContent: "WLContent", timing.BLContent: "BLContent"}[t.Content]
	fmt.Fprintf(b, "\nvar %s = Table{Granularity: %d, Content: %s, LatNs: [Buckets][Buckets][Buckets]float64{\n", name, t.Granularity, content)
	for wb := range t.LatNs {
		b.WriteString("{\n")
		for _, row := range t.LatNs[wb] {
			sep := "{"
			for _, v := range row {
				b.WriteString(sep + lit(v))
				sep = ", "
			}
			b.WriteString("},\n")
		}
		b.WriteString("},\n")
	}
	b.WriteString("}}\n")
}

// lit spells v as a bit-exact Go expression.
func lit(v float64) string { return fmt.Sprintf("math.Float64frombits(0x%016x)", math.Float64bits(v)) }
