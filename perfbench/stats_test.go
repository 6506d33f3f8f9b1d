package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestMedianAndQuantile(t *testing.T) {
	cases := []struct {
		xs      []float64
		q, want float64
	}{
		{nil, 0.5, 0},
		{[]float64{3}, 0.5, 3},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{[]float64{1, 2, 3, 4, 5}, 0.9, 4.6},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{5, 1, 4}
	if median(xs) != 4 || xs[0] != 5 {
		t.Errorf("median must not reorder its input: median=%g xs=%v", median(xs), xs)
	}
}

func TestP90NeedsTenSamplesBeyond(t *testing.T) {
	if got := samplesFor(0.9); got != 100 {
		t.Fatalf("samplesFor(0.9) = %d, want 100", got)
	}
	if got := samplesFor(0.5); got != 20 {
		t.Fatalf("samplesFor(0.5) = %d, want 20", got)
	}
	if tailOK(99, 0.9) || !tailOK(100, 0.9) {
		t.Fatalf("tailOK(99|100, 0.9) = %v|%v, want false|true", tailOK(99, 0.9), tailOK(100, 0.9))
	}
	// At the threshold, exactly ten samples lie strictly above p90.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	p90 := quantile(xs, 0.9)
	beyond := 0
	for _, x := range xs {
		if x > p90 {
			beyond++
		}
	}
	if beyond != minTail {
		t.Fatalf("%d samples beyond p90 of 100, want %d", beyond, minTail)
	}
	if got := tailQuantile(xs, 0.9); got != p90 {
		t.Fatalf("tailQuantile of 100 samples = %g, want p90 %g", got, p90)
	}
	if got, want := tailQuantile(xs[:99], 0.9), median(xs[:99]); got != want {
		t.Fatalf("tailQuantile of 99 samples = %g, want their median %g", got, want)
	}
}

func TestTallyCountsFailuresAgainstBase(t *testing.T) {
	var a tally
	a.ok()
	a.check(true, "unused")
	a.check(false, "cell %d mismatched", 7)
	if a.attempted != 3 || a.failed != 1 || a.frac() != 1.0/3 {
		t.Fatalf("tally = %+v, frac %g", a, a.frac())
	}
	var b tally
	b.fail("rejected")
	a.add(b)
	if a.attempted != 4 || a.failed != 2 {
		t.Fatalf("after add: %+v", a)
	}
	if got, want := a.String(), "0.5000 (2 failed / 4 attempted)"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if len(a.reasons) != 2 || a.reasons[0] != "cell 7 mismatched" {
		t.Fatalf("reasons = %q", a.reasons)
	}
	var empty tally
	if empty.frac() != 0 {
		t.Fatal("an empty tally has failure fraction 0")
	}
}

func TestClosedLoopArithmetic(t *testing.T) {
	repeats := 0
	for k := 0; k < 400; k++ {
		if repeatSlot(k) {
			repeats++
		}
	}
	if repeats != 100 {
		t.Fatalf("%d of 400 job slots resubmit, want one in four", repeats)
	}
	for k := 0; k < 3; k++ {
		if repeatSlot(k) {
			t.Fatalf("slot %d resubmits before the client completed a fresh job", k)
		}
	}

	now := time.Unix(1000, 0)
	if !keepGoing(now, now.Add(time.Second), minJobs+5, minJobs) {
		t.Error("before the deadline a client keeps going")
	}
	if !keepGoing(now, now.Add(-time.Second), minJobs-1, minJobs) {
		t.Error("past the deadline a client keeps going until minJobs have started")
	}
	if keepGoing(now, now, minJobs, minJobs) {
		t.Error("at the deadline with minJobs started the loop ends")
	}

	// A far-off deadline: the plan's sequence is fixed by the seed.
	plan := newMixPlan(7, now.Add(time.Hour))
	rng := rand.New(rand.NewSource(1))
	fresh, repeat := 0, 0
	seen := map[int]bool{}
	for k := 0; k < 40; k++ {
		pool, ordinal, ok := plan.next(k, rng)
		if !ok {
			t.Fatal("plan ended before its deadline")
		}
		if ordinal < 0 {
			repeat++
			if !seen[pool] {
				t.Fatalf("slot %d resubmitted pool job %d, which never completed", k, pool)
			}
			continue
		}
		if pool != plan.freshIndex(ordinal) || ordinal != fresh {
			t.Fatalf("fresh job %d got pool %d ordinal %d", fresh, pool, ordinal)
		}
		if seen[pool] {
			t.Fatalf("fresh pool job %d scheduled twice", pool)
		}
		seen[pool] = true
		fresh++
		plan.completed(pool)
	}
	if fresh != 30 || repeat != 10 {
		t.Fatalf("one client's 40 slots: %d fresh, %d repeats; want 30 and 10", fresh, repeat)
	}
	if plan.freshIndex(mixPool) != plan.freshIndex(0) {
		t.Fatal("fresh jobs beyond the pool wrap to its start")
	}
	again := newMixPlan(7, now)
	for n := 0; n < mixPool; n++ {
		if again.freshIndex(n) != plan.freshIndex(n) {
			t.Fatal("the same seed must give the same fresh-job order")
		}
	}
	for i := 0; i < 2*mixRecent; i++ {
		plan.completed(i)
	}
	if len(plan.recent) != mixRecent {
		t.Fatalf("%d resubmission candidates kept, want %d", len(plan.recent), mixRecent)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "root", StartNs: 0, EndNs: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10 * ms, EndNs: 40 * ms},
		{ID: 3, Parent: 1, Name: "a", StartNs: 30 * ms, EndNs: 50 * ms},  // overlaps 2
		{ID: 4, Parent: 1, Name: "b", StartNs: 90 * ms, EndNs: 120 * ms}, // clipped at 100
		{ID: 5, Parent: 2, Name: "c", StartNs: 15 * ms, EndNs: 20 * ms},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	want := map[string]time.Duration{
		"root": 50 * time.Millisecond, // 100 - union(10..50, 90..100)
		"a":    45 * time.Millisecond, // (30 - 5) + 20
		"b":    30 * time.Millisecond,
		"c":    5 * time.Millisecond,
	}
	for name, w := range want {
		if got[name].Self != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name].Self, w)
		}
	}
	if got["a"].Count != 2 || got["a"].Total != 50*time.Millisecond {
		t.Errorf("a: %+v", got["a"])
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	end := r.start("x", 0, "")
	if end() != 0 || r.reserve("y", 0, "") != 0 || r.now() != 0 || r.snapshot() != nil {
		t.Fatal("a nil recorder must be inert")
	}
	r.finish(1, 0, 0)
}
