package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"testing"
	"time"
)

// smoke is a small-scale run: 8192 orders rows, one set-up, 0.6s.
func smoke(t *testing.T, w string, trace bool) *result {
	t.Helper()
	res, err := run(params{workload: w, seed: 3, rows: 1 << 13, seconds: 0.6, trace: trace, setups: 1}, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%t: %v", w, trace, err)
	}
	return res
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, workloads)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := smoke(t, w, trace)
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d", w, trace, res.correct, res.failed, res.attempted)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			var got []declared
			for _, m := range res.metrics {
				got = append(got, declared{m.name, m.unit})
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s trace=%t emits\n%v\nBENCHMARK.json declares\n%v", w, trace, got, want)
			}
		}
	}
}

// corrupt rewrites every 200 reply: the first digit of a read's rows
// (to another digit, never a leading zero, so the body stays valid
// JSON), and an INSERT's applied count.
type corrupt struct{ h http.Handler }

func (c corrupt) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, r)
	b := rec.Body.Bytes()
	if rec.Code == http.StatusOK {
		b = bytes.Replace(b, []byte(`"applied":32`), []byte(`"applied":31`), 1)
		if i := bytes.Index(b, []byte(`"rows":[[`)); i >= 0 {
			for j := i + len(`"rows":[[`); j < len(b); j++ {
				if b[j] >= '0' && b[j] <= '8' {
					b[j]++
					break
				}
				if b[j] == '9' {
					b[j] = '8'
					break
				}
			}
		}
	}
	w.WriteHeader(rec.Code)
	w.Write(b)
}

func TestCorruptedRepliesCountAsFailed(t *testing.T) {
	for _, w := range []string{"analytics", "mixed"} {
		p := params{workload: w, seed: 5, rows: 1 << 13, seconds: 1}
		s := genStreams(w, p.seed, p.rows, p.seconds)
		b, _, _, err := setup(p, s.warm)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.fillWants(s.timed); err != nil {
			t.Fatal(err)
		}
		var clean result
		clean.correct = true
		clean.tally(b.drive(s.timed[:20], 1, time.Minute, nil).replies...)
		if clean.failed != 0 {
			t.Fatalf("%s: %d of the uncorrupted replies failed", w, clean.failed)
		}

		b.srv = corrupt{b.srv}
		var res result
		res.correct = true
		ph := b.drive(s.timed[20:60], 1, time.Minute, nil)
		res.tally(ph.replies...)
		var want int
		for _, rp := range ph.replies {
			// Analytics replies are all checked against expected rows;
			// mixed checks INSERTs only, so its corrupted reads pass.
			if w == "analytics" || rp.op == opInsert {
				want++
			}
		}
		if want == 0 || res.failed != want || res.correct {
			t.Errorf("%s: %d corrupted replies counted as failed, want %d (correct=%t)", w, res.failed, want, res.correct)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := pct(v, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %g, want 190 (10 samples beyond it)", got)
	}
	if got := pct(v, 0.5); got != 100 {
		t.Errorf("p50 of 1..200 = %g, want 100", got)
	}
	if got := pct(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
}
