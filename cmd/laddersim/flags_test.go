package main

import (
	"strings"
	"testing"
	"time"
)

func TestValidateFlags(t *testing.T) {
	type in struct {
		sample, slowest int
		rate            float64
	}
	cases := []struct {
		name    string
		in      in
		wantErr string // empty = valid
	}{
		{"defaults", in{1, 0, 0}, ""},
		{"typical injection", in{1, 5, 0.01}, ""},
		{"rate just below one", in{1, 0, 0.999}, ""},
		{"zero sample", in{0, 0, 0}, "-trace-sample"},
		{"negative sample", in{-4, 0, 0}, "-trace-sample"},
		{"negative slowest", in{1, -1, 0}, "-trace-slowest"},
		{"rate one", in{1, 0, 1}, "-fault-rate"},
		{"rate negative", in{1, 0, -0.5}, "-fault-rate"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateFlags(c.in.sample, c.in.slowest, c.in.rate)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected an error mentioning %q", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not name the offending flag %q", err, c.wantErr)
			}
		})
	}
}

func TestValidateTimelineFlags(t *testing.T) {
	if err := validateTimelineFlags(0, ""); err != nil {
		t.Errorf("both off: unexpected error %v", err)
	}
	if err := validateTimelineFlags(10_000, "tl.csv"); err != nil {
		t.Errorf("interval with output: unexpected error %v", err)
	}
	if err := validateTimelineFlags(10_000, ""); err != nil {
		t.Errorf("interval without output: unexpected error %v", err)
	}
	if err := validateTimelineFlags(0, "tl.json"); err == nil || !strings.Contains(err.Error(), "-timeline-interval") {
		t.Errorf("output without interval: error %v does not name -timeline-interval", err)
	}
}

func TestValidateServeFlags(t *testing.T) {
	cases := []struct {
		name                        string
		jobs, queueDepth, cacheSize int
		jobTimeout, stallTimeout    time.Duration
		wantErr                     string // empty = valid
	}{
		{"defaults", 0, 16, 64, 0, 0, ""},
		{"explicit jobs", 8, 1, 1, 0, 0, ""},
		{"timeouts on", 0, 16, 64, time.Minute, 10 * time.Second, ""},
		{"negative jobs", -1, 16, 64, 0, 0, "-jobs"},
		{"zero queue", 0, 0, 64, 0, 0, "-queue-depth"},
		{"negative queue", 0, -2, 64, 0, 0, "-queue-depth"},
		{"zero cache", 0, 16, 0, 0, 0, "-cache-size"},
		{"negative job timeout", 0, 16, 64, -time.Second, 0, "-job-timeout"},
		{"negative stall timeout", 0, 16, 64, 0, -time.Second, "-stall-timeout"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateServeFlags(c.jobs, c.queueDepth, c.cacheSize, c.jobTimeout, c.stallTimeout)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %v does not name the offending flag %q", err, c.wantErr)
			}
		})
	}
}
