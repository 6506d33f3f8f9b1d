package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"ladder/internal/sim"
)

// TestEveryRequestFieldMatters walks Request by reflection and perturbs
// one field at a time from a tiny base grid: each perturbation must
// either be rejected (400) or change the stripped report. A field that
// does neither is an inert input — it splits dedup and the report cache
// on bytes that change nothing — so a new field cannot land without
// wiring it into the simulation (or into validation).
func TestEveryRequestFieldMatters(t *testing.T) {
	_, ts := newTestService(t, Config{})
	base := Request{Workloads: []string{"astar"}, Schemes: []string{"baseline"}, Instr: 2_000, Seed: 7}
	// Slice fields need values from their domain; numeric fields are
	// perturbed generically.
	lists := map[string][]string{
		"workloads": {"lbm"},
		"schemes":   {"LADDER-Hybrid"},
	}
	want := strippedReport(t, ts.URL, base)
	if want == nil {
		t.Fatal("base request rejected")
	}
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		t.Run(name, func(t *testing.T) {
			req := base
			v := reflect.ValueOf(&req).Elem().Field(i)
			switch v.Kind() {
			case reflect.Int, reflect.Int64:
				v.SetInt(2*v.Int() + 1)
			case reflect.Uint64:
				v.SetUint(2*v.Uint() + 1)
			case reflect.Slice:
				alt, ok := lists[name]
				if !ok {
					t.Fatalf("no perturbation for list field %q; add one", name)
				}
				v.Set(reflect.ValueOf(alt))
			default:
				t.Fatalf("no perturbation for field %q of kind %s; add one", name, v.Kind())
			}
			got := strippedReport(t, ts.URL, req)
			if got != nil && bytes.Equal(got, want) {
				t.Errorf("field %q was accepted but left the report unchanged: an inert input", name)
			}
		})
	}
}

// strippedReport submits req, waits for the job and returns its report
// with the volatile wall-clock fields stripped, or nil when the service
// rejects the request with a 400.
func strippedReport(t *testing.T, url string, req Request) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, sub := postJob(t, url, string(body))
	if resp.StatusCode == http.StatusBadRequest {
		return nil
	}
	if resp.StatusCode >= 300 {
		t.Fatalf("submit %s = %d", body, resp.StatusCode)
	}
	if st := waitTerminal(t, url, sub.ID); st.State != StateDone {
		t.Fatalf("job %s ended %s: %s", body, st.State, st.Error)
	}
	var gr sim.GridReport
	if err := json.Unmarshal(getBody(t, url+"/jobs/"+sub.ID+"/report"), &gr); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(gr.StripVolatile())
	if err != nil {
		t.Fatal(err)
	}
	return out
}
