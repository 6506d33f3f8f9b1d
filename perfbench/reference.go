package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"ladder/internal/sim"
)

// refSeeds is how many workload seeds have recorded reference outputs.
// A --seed selects reference index seed mod refSeeds, and the simulator
// seed derived from that index; the same --seed always gives the same
// inputs.
const refSeeds = 12

// refIndex maps a workload seed onto a reference index.
func refIndex(seed int64) int {
	i := seed % refSeeds
	if i < 0 {
		i += refSeeds
	}
	return int(i)
}

// simSeed is the simulator seed of reference index i.
func simSeed(i int) int64 { return 42 + 7_368_787*int64(i) }

// digest is the check value of one output: the first 16 hex digits of
// its SHA-256.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// reportDigest digests a run's report with host-timing fields stripped
// and any timing-wrapper scheme name restored, so a traced run checks
// against the same reference as an untraced one.
func reportDigest(res *sim.Result) (string, error) {
	rep := sim.NewReport(res).StripVolatile()
	rep.Scheme = untimed(rep.Scheme)
	b, err := json.Marshal(rep)
	if err != nil {
		return "", fmt.Errorf("encoding report %s/%s: %w", res.Workload, res.Scheme, err)
	}
	return digest(b), nil
}

// gridReportDigest digests a served grid report the same way: volatile
// fields stripped, wrapper scheme names restored. It returns the
// report's work counts, read before the host-timing fields are stripped.
func gridReportDigest(raw []byte) (string, facts, error) {
	var gr sim.GridReport
	if err := json.Unmarshal(raw, &gr); err != nil {
		return "", facts{}, fmt.Errorf("decoding grid report: %w", err)
	}
	f := gridFacts(&gr)
	for i := range gr.Schemes {
		gr.Schemes[i] = untimed(gr.Schemes[i])
	}
	for i := range gr.Cells {
		gr.Cells[i].Scheme = untimed(gr.Cells[i].Scheme)
	}
	b, err := json.Marshal(gr.StripVolatile())
	if err != nil {
		return "", facts{}, fmt.Errorf("encoding grid report: %w", err)
	}
	return digest(b), f, nil
}

// reference holds the recorded digests the benchmark checks outputs
// against. PaperOps names paper-eval's checked outputs in order;
// PaperEval[i] lists their digests for reference index i. LongWrite[i]
// is the long cell's digest, and ServicePool[k] the stripped grid report
// digest of service-mix pool job k.
type reference struct {
	PaperOps    []string            `json:"paper_ops"`
	PaperEval   map[string][]string `json:"paper_eval"`
	LongWrite   map[string]string   `json:"long_write"`
	ServicePool []string            `json:"service_pool"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("decoding reference.json: %w", err)
	}
	return &ref, nil
}

// paperDigests returns the recorded paper-eval digests for index i keyed
// by output name, or nil when none were recorded.
func (r *reference) paperDigests(i int) map[string]string {
	ds := r.PaperEval[strconv.Itoa(i)]
	if len(ds) != len(r.PaperOps) {
		return nil
	}
	out := make(map[string]string, len(ds))
	for k, name := range r.PaperOps {
		out[name] = ds[k]
	}
	return out
}

// writeReference writes ref as indented JSON to path.
func writeReference(path string, ref *reference) error {
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
