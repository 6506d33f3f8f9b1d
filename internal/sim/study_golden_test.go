package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// goldenStudies pins every Section 6/7 study's JSON-encoded output at a
// tiny scale (small timing tables, two workloads, 30k instructions per
// core), with each study's default sweep lists except reliability's
// rates, raised so retries actually occur at this scale. The digests
// were recorded while each study still ran its cells in its own serial
// loop; a mismatch means a study's cells, their reduce order or a float
// sum changed.
var goldenStudies = []struct {
	name   string
	digest string
	run    func(Options) (any, error)
}{
	{"ablation", "c86b8f5349d5999392fde7bc466a965f984e9c09690fb9dae08f9395e42cc55b", func(o Options) (any, error) { return RangeAblation(o, SchemeEst, 2) }},
	{"wear", "6e61cb884a9201a60b3a46024033b9dd55d01f667dc661c1c2dfff78bc721024", func(o Options) (any, error) { return WearLevelingImpact(o, SchemeHybrid) }},
	{"lifetime", "880003717f05031fe34023b6976adfc8857923c70528f9f98681bc073e9557a3", func(o Options) (any, error) {
		st, err := LifetimeSweep(o, SchemeHybrid, nil, nil)
		if err != nil {
			return nil, err
		}
		return st.Report(), nil
	}},
	{"vwlmode", "48ee0ed8ef3914cb9b10fd104e1a02643a97625e397ebfe281fc5b03f954861a", func(o Options) (any, error) { return VWLModeComparison(o, SchemeEst) }},
	{"crash", "e4b4f20a149e2a3a275b2ee27ecc57c49cd0d45b3a00a0995b620339d4c5a342", func(o Options) (any, error) { return CrashRecoveryStudy(o, SchemeEst) }},
	{"cachesize", "357c8692749f439c27d622e09c468a11efa7c64b606350ac6383f1599d88ac32", func(o Options) (any, error) { return CacheSizeSweep(o, SchemeHybrid, nil) }},
	{"reliability", "b4a4826fb076f5fb555e84833e866472f04d009f8bf53293a34e195770010a27", func(o Options) (any, error) {
		o.RetryMax, o.SpareRows = 3, 32
		return ReliabilitySweep(o, nil, []float64{0.01, 0.1})
	}},
	{"lowrows", "0e0367331313b93847f3bfc61cabb60fa5e3de09fd81a923a1e2b05c24908d50", func(o Options) (any, error) { return LowPrecisionSweep(o, nil) }},
}

// TestStudyGoldenDigests runs each study sequentially and on a worker
// pool: both must reproduce the pinned bytes.
func TestStudyGoldenDigests(t *testing.T) {
	for _, st := range goldenStudies {
		for _, jobs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/jobs=%d", st.name, jobs), func(t *testing.T) {
				opts := Options{
					Instr: 30_000, Seed: 42, Tables: smallTables(t),
					Workloads: []string{"mcf", "lbm"}, Jobs: jobs,
				}
				out, err := st.run(opts)
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(out)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				if got := hex.EncodeToString(sum[:]); got != st.digest {
					t.Errorf("study output digest = %s, want %s\n%s", got, st.digest, b)
				}
			})
		}
	}
}
