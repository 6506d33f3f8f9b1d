package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ladder/internal/trace"
)

// TestRecordedTraceDigests pins the bytes of recorded trace files at fixed
// seeds, so a change to trace synthesis that alters a single written bit,
// or to the file encoding, shows here. The digests are of the files
// `tracegen -workload <w> -seed <s> -n 5000 -o <file>` writes.
func TestRecordedTraceDigests(t *testing.T) {
	cases := []struct {
		workload string
		seed     int64
		sha256   string
	}{
		{"lbm", 42, "ca9b26d3960b7b96d5fa834f18036bc5a07ab850b3018a409f24611a52fd6207"},
		{"lbm", -3, "8f199fee07997d48d9b9f7582683aa8386be2cb7072941779ce54c785d7c760c"},
		{"cannl", 42, "46a6fc3d8122407d960bc36d8ee8b38424cd731c36c26594a7baa2e44d8cf868"},
		{"cannl", -3, "74a11d28d56acfaf503a3d50d9d1c0e5a5795249dbd5ba16d349e883d6e23ebc"},
		{"mcf", 42, "3f4f50e9188d333f107ac750c5f0dae1799a3f6a62be0a9d6cccef4ed4c7ebd1"},
		{"mcf", -3, "7d7f76510ab81bcda55e95e7a4180ed33c07ede6b3260731789deac3b641e8ce"},
	}
	for _, c := range cases {
		gen, err := newGenerator(c.workload, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.Record(&buf, gen, c.workload, c.seed, 5000); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.sha256 {
			t.Errorf("%s seed %d: trace sha256 %s, want %s", c.workload, c.seed, got, c.sha256)
		}
	}
}
