package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for n := minBeyond * 2; n <= 3000; n++ {
		p := tailPct(n)
		if p > 99 {
			t.Fatalf("n=%d: tail p%g above p99", n, p)
		}
		if beyond := n - 1 - rankIndex(p, n); beyond < minBeyond {
			t.Fatalf("n=%d: tail p%g keeps %d samples beyond it, want >= %d", n, p, beyond, minBeyond)
		}
		if n >= 1000 && p != 99 {
			t.Fatalf("n=%d: tail p%g, want p99 once 1000 samples are in", n, p)
		}
	}
	if p := tailPct(5); p != 50 {
		t.Errorf("tailPct(5) = %g, want the median fallback", p)
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	d := summarize(xs)
	if d.N != 200 || d.P50 != 100 || d.TailPct != 95 || d.Tail != 190 {
		t.Errorf("summarize(1..200) = %+v, want n=200 p50=100 p95=190", d)
	}
	if note := distNote("x", "ms", d); !strings.Contains(note, "n=200") || !strings.Contains(note, "p95") {
		t.Errorf("distNote %q does not print the sample count and the percentile used", note)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "batch", Start: ms(0), End: ms(100)},
		// Two concurrent trials overlap on [30, 40]; a third runs past
		// the parent's end and only its inside part counts.
		{ID: 2, Parent: 1, Name: "trial", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "trial", Start: ms(30), End: ms(60)},
		{ID: 4, Parent: 1, Name: "trial", Start: ms(90), End: ms(120)},
		// A grandchild is covered by its own parent, not by the batch.
		{ID: 5, Parent: 2, Name: "run", Start: ms(15), End: ms(35)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: ms(40), 2: ms(10), 3: ms(30), 4: ms(30), 5: ms(20)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	agg := byName(spans)
	if st := agg["trial"]; st.Count != 3 || st.Total != ms(90) || st.Self != ms(70) {
		t.Errorf("trial aggregate = %+v, want count 3, total 90ms, self 70ms", *st)
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, 1)
	r.end(id)
	if id != 0 || r.closed() != nil {
		t.Fatal("a nil recorder recorded a span")
	}
	rec := newRecorder()
	open := rec.begin("open", 0, 1)
	done := rec.begin("done", open, 1)
	rec.end(done)
	if got := rec.closed(); len(got) != 1 || got[0].Name != "done" || got[0].Parent != open {
		t.Fatalf("closed() = %+v, want only the finished child", got)
	}
}

// pbw is a minimal protobuf writer for building synthetic profiles.
type pbw struct{ b []byte }

func (w *pbw) varint(v uint64) {
	for v >= 0x80 {
		w.b = append(w.b, byte(v)|0x80)
		v >>= 7
	}
	w.b = append(w.b, byte(v))
}

func (w *pbw) uint(field int, v uint64) {
	w.varint(uint64(field) << 3)
	w.varint(v)
}

func (w *pbw) bytes(field int, b []byte) {
	w.varint(uint64(field)<<3 | 2)
	w.varint(uint64(len(b)))
	w.b = append(w.b, b...)
}

func (w *pbw) packed(field int, vs ...uint64) {
	var in pbw
	for _, v := range vs {
		in.varint(v)
	}
	w.bytes(field, in.b)
}

// syntheticProfile encodes a gzipped CPU profile. Each stack lists
// location IDs leaf first; locations map to function names, leaf
// (innermost inlined) first.
func syntheticProfile(t *testing.T, locs map[uint64][]string, samples []struct {
	stack []uint64
	ns    uint64
}, packed bool) []byte {
	t.Helper()
	strs := []string{""}
	idx := map[string]uint64{"": 0}
	str := func(s string) uint64 {
		if i, ok := idx[s]; ok {
			return i
		}
		idx[s] = uint64(len(strs))
		strs = append(strs, s)
		return idx[s]
	}
	var p pbw
	for _, st := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var vt pbw
		vt.uint(1, str(st[0]))
		vt.uint(2, str(st[1]))
		p.bytes(1, vt.b)
	}
	for _, s := range samples {
		var sp pbw
		if packed {
			sp.packed(1, s.stack...)
			sp.packed(2, 1, s.ns)
		} else {
			for _, l := range s.stack {
				sp.uint(1, l)
			}
			sp.uint(2, 1)
			sp.uint(2, s.ns)
		}
		p.bytes(2, sp.b)
	}
	funcs := map[string]uint64{}
	for id, names := range locs {
		var loc pbw
		loc.uint(1, id)
		for _, n := range names {
			fid, ok := funcs[n]
			if !ok {
				fid = uint64(len(funcs) + 1)
				funcs[n] = fid
			}
			var line pbw
			line.uint(1, fid)
			line.uint(2, 42)
			loc.bytes(4, line.b)
		}
		p.bytes(4, loc.b)
	}
	for name, id := range funcs {
		var fn pbw
		fn.uint(1, id)
		fn.uint(2, str(name))
		p.bytes(5, fn.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributeSyntheticProfile(t *testing.T) {
	locs := map[uint64][]string{
		1: {"repro/internal/hello.(*Table).Update"},
		2: {"repro/internal/netsim.(*World).beaconRound"},
		3: {"runtime.mapassign_fast64"},
		4: {"runtime.scanobject"},
		5: {"runtime.gcBgMarkWorker"},
		6: {"encoding/json.(*encodeState).marshal"},
		// An inlined leaf: spatial code inlined into a netsim caller.
		7: {"repro/internal/spatial.cellOf", "repro/internal/netsim.(*World).appendReceivers"},
		8: {"internal/runtime/maps.(*Map).getWithKeySmall"},
		9: {"net/http.(*conn).serve"},
	}
	samples := []struct {
		stack []uint64
		ns    uint64
	}{
		{[]uint64{1, 2}, 10e6},
		{[]uint64{1, 2}, 10e6},
		{[]uint64{3, 1, 2}, 10e6},
		{[]uint64{4, 5}, 10e6},
		{[]uint64{6, 9}, 20e6},
		{[]uint64{7, 2}, 10e6},
		{[]uint64{8, 1}, 10e6},
		{[]uint64{9}, 5e6},
	}
	want := map[string]float64{
		"hello":         0.02,
		"runtime.map":   0.02,
		"runtime.gc":    0.01,
		"encoding_json": 0.02,
		"spatial":       0.01,
		"net_http":      0.005,
	}
	for _, packed := range []bool{true, false} {
		got, err := parseProfile(syntheticProfile(t, locs, samples, packed))
		if err != nil {
			t.Fatal(err)
		}
		layers := attribute(got)
		if len(layers) != len(want) {
			t.Errorf("packed=%v: layers %v, want %v", packed, layers, want)
		}
		for k, w := range want {
			if math.Abs(layers[k]-w) > 1e-12 {
				t.Errorf("packed=%v: %s = %v s, want %v s", packed, k, layers[k], w)
			}
		}
	}
	out := map[string]float64{}
	addCPU(out, "setup.", map[string]float64{"hello": 1, "runtime.map": 2})
	if out["setup.hello.self_s"] != 1 || out["setup.runtime.map_self_s"] != 2 {
		t.Errorf("addCPU names = %v", out)
	}
}

func TestParseRealProfile(t *testing.T) {
	c, err := startCPU()
	if err != nil {
		t.Skip(err)
	}
	x := 0.0
	for i := 0; i < 3e7; i++ {
		x += math.Sqrt(float64(i))
	}
	if _, err := c.stop(); err != nil || x == 0 {
		t.Fatalf("parsing the runtime's own profile: %v", err)
	}
}

// fakeService answers POST /v1/jobs with 429 for the document named
// "refused" and queues every other one as a job that then fails.
func fakeService(t *testing.T) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var m map[string]any
		json.NewDecoder(r.Body).Decode(&m)
		if m["name"] == "refused" {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"job queue is full"}`, http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Imobif-Submission", "queued")
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"job-1","status":"queued","fingerprint":"f"}`))
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"id":"job-1","status":"failed","fingerprint":"f","error":"boom"}`))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestClosedLoopAccounting(t *testing.T) {
	srv := fakeService(t)
	s := &session{base: srv.URL, board: newFinishBoard(), bodies: map[string][]byte{}, byIdx: map[int][]byte{}, traces: map[int][]byte{}}
	c := &client{s: s, hc: srv.Client()}
	c.round([]doc{
		{idx: 1, body: []byte(`{"name":"refused"}`)},
		{idx: 2, body: []byte(`{"name":"fails"}`)},
	})
	if s.miss.attempted != 2 || s.miss.failed != 2 {
		t.Errorf("miss tally attempted %d failed %d, want 2 and 2", s.miss.attempted, s.miss.failed)
	}
	if s.refused != 1 {
		t.Errorf("refused = %d, want the 429 counted", s.refused)
	}
	limit := ms(serveJobLimit)
	for _, l := range s.miss.lat {
		if !(l > limit) {
			t.Errorf("failed submission recorded at %v ms, within the %v ms limit", l, limit)
		}
	}
	if d := summarize(s.miss.lat); !(d.P50 > limit) {
		t.Errorf("median of failed submissions %v ms does not miss the limit", d.P50)
	}

	var tl tally
	tl.ok(3)
	tl.fail()
	if tl.attempted != 2 || tl.failed != 1 || !math.IsInf(tl.lat[1], 1) {
		t.Errorf("tally after ok+fail = %+v", tl)
	}
	rep := newReport()
	s.account(rep, time.Second)
	if rep.attempted != 2 || rep.failed != 2 {
		t.Errorf("report attempted %d failed %d, want 2 and 2", rep.attempted, rep.failed)
	}
}

func TestFinishBoard(t *testing.T) {
	f := newFinishBoard()
	a, b := &pending{id: "job-1"}, &pending{id: "job-2"}
	go func() {
		time.Sleep(5 * time.Millisecond)
		f.mark("job-2")
	}()
	ready, rest := f.ready([]*pending{a, b}, time.Minute)
	if len(ready) != 1 || ready[0] != b || len(rest) != 1 || rest[0] != a {
		t.Fatalf("after job-2 finished: ready %v rest %v", ready, rest)
	}
	// Without a signal, every open job is returned for a poll.
	ready, rest = f.ready([]*pending{a}, time.Millisecond)
	if len(ready) != 1 || ready[0] != a || len(rest) != 0 {
		t.Fatalf("after the fallback wait: ready %v rest %v", ready, rest)
	}
	f.clear()
	f.mark("job-1")
	ready, _ = f.ready([]*pending{a, b}, time.Minute)
	if len(ready) != 1 || ready[0] != a {
		t.Fatalf("after clear and job-1 finished: ready %v", ready)
	}
}

func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark reports %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestWithoutFlags(t *testing.T) {
	got := withoutFlags([]string{"--workload", "w", "--repeat", "3", "--seed=4", "-seconds", "2"}, "repeat", "seed")
	want := []string{"--workload", "w", "-seconds", "2"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("withoutFlags = %v, want %v", got, want)
	}
}
