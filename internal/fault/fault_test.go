package fault

import (
	"math"
	"testing"
)

func mustInjector(t *testing.T, cfg Config) *Injector {
	t.Helper()
	in, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero value", Config{}, true},
		{"typical", Config{Rate: 0.01, Seed: 7, RetryMax: 3}, true},
		{"explicit zero retries", Config{Rate: 0.01, RetryMax: 0}, true},
		{"rate one", Config{Rate: 1}, false},
		{"rate negative", Config{Rate: -0.1}, false},
		{"negative retries", Config{RetryMax: -1}, false},
	}
	for _, c := range cases {
		_, err := NewInjector(c.cfg)
		if (err == nil) != c.ok {
			t.Errorf("%s: NewInjector err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestDefaultsApplied pins what the injector defaults: only the wear
// limit. RetryMax is taken as given (sim.Config resolves its default), so
// an explicit zero means "no reissues" and survives untouched.
func TestDefaultsApplied(t *testing.T) {
	if in := mustInjector(t, Config{Rate: 0.01, RetryMax: 0}); in.RetryMax() != 0 {
		t.Errorf("RetryMax(0) = %d, want 0 (reissues disabled, not defaulted)", in.RetryMax())
	}
	if in := mustInjector(t, Config{Rate: 0.01, RetryMax: 7}); in.RetryMax() != 7 {
		t.Errorf("RetryMax(7) = %d, want 7", in.RetryMax())
	}
	if in := mustInjector(t, Config{Rate: 0.01}); in.WearLimit() != DefaultWearLimit {
		t.Errorf("WearLimit = %d, want default %d", in.WearLimit(), DefaultWearLimit)
	}
}

// TestSeededRateWithinTolerance checks that zero-margin injection hits
// the configured base rate: the heart of the model's calibration.
func TestSeededRateWithinTolerance(t *testing.T) {
	const (
		rate   = 0.02
		trials = 200_000
	)
	in := mustInjector(t, Config{Rate: rate, Seed: 42})
	faults := 0
	for i := 0; i < trials; i++ {
		// Zero margin: programmed latency equals the requirement.
		if in.CheckWrite(100, 100, 0) == Transient {
			faults++
		}
	}
	got := float64(faults) / trials
	// 5 sigma of a binomial at p=0.02, n=200k is ~0.0016.
	if tol := 0.002; math.Abs(got-rate) > tol {
		t.Errorf("observed rate %.5f outside %v ± %v", got, rate, tol)
	}
	st := in.Stats()
	if st.Checked != trials || st.Injected != uint64(faults) || st.Transient != uint64(faults) {
		t.Errorf("stats mismatch: %+v (faults %d)", st, faults)
	}
}

// TestMarginShapesProbability pins the U-shaped response: exact
// provisioning is the minimum (base rate), a deficit boosts the
// probability toward certain incomplete switching, and a surplus raises
// it too (over-RESET stress scaling with excess pulse time).
func TestMarginShapesProbability(t *testing.T) {
	in := mustInjector(t, Config{Rate: 0.05, Seed: 1})
	pZero := in.probability(100, 100)
	pOver := in.probability(200, 100)
	pFarOver := in.probability(400, 100)
	pUnder := in.probability(80, 100)
	pDeep := in.probability(25, 100)
	if pZero != 0.05 {
		t.Errorf("zero-margin probability %v, want base rate", pZero)
	}
	if !(pZero < pOver && pOver < pFarOver) {
		t.Errorf("surplus margin should raise the rate: zero=%v over=%v far=%v",
			pZero, pOver, pFarOver)
	}
	if !(pZero < pUnder && pUnder < pDeep) {
		t.Errorf("probabilities not monotone in deficit: zero=%v under=%v deep=%v",
			pZero, pUnder, pDeep)
	}
	if pDeep != 1 {
		t.Errorf("4x under-provisioned pulse should fail certainly, got %v", pDeep)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Verdict {
		in := mustInjector(t, Config{Rate: 0.3, Seed: 99})
		out := make([]Verdict, 1000)
		for i := range out {
			out[i] = in.CheckWrite(100, 95+float64(i%11), 0)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d diverged across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestWearPermanent pins the permanent-fault threshold on the effective
// write count the caller supplies (the decoder subtracts its remap
// baseline before calling, so a fresh spare counts from zero).
func TestWearPermanent(t *testing.T) {
	in := mustInjector(t, Config{Rate: 0.001, Seed: 3, WearLimit: 100})
	if v := in.CheckWrite(100, 100, 99); v != OK && v != Transient {
		t.Fatalf("pre-limit write got %v", v)
	}
	if v := in.CheckWrite(1e6, 100, 100); v != Permanent {
		t.Fatalf("at-limit write got %v, want Permanent (margin must not matter)", v)
	}
	st := in.Stats()
	if st.Permanent != 1 {
		t.Errorf("stats = %+v, want exactly 1 permanent fault", st)
	}
}

func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
	if st := in.Stats(); st != (Stats{}) {
		t.Fatalf("nil injector stats = %+v, want zero value", st)
	}
}
