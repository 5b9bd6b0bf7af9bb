package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// The serve-mixed workload drives an in-process imobif-served engine
// (serve.New with daemon defaults: GOMAXPROCS workers, queue 64, cache
// 128) over a loopback HTTP listener with two closed-loop clients that
// behave like imobif-sweep's HTTP worker: submit a batch, then fetch
// every job until it is terminal. Each round a client submits:
//
//   - one shared document that both clients send right after a common
//     barrier, so one submission queues and the other coalesces;
//   - serveFresh new documents (cache misses: a simulation runs);
//   - its previous round's new documents again (cache hits).
//
// Every document is therefore submitted twice within the cache window.
// Documents are small random_nodes scenarios; every twentieth asks for
// output.trace (its trace is fetched) and another twentieth sets
// sample_interval_s.
//
// A client fetches a job as soon as the engine's JobFinished hook reports
// it terminal, not on a timer: with a fixed poll interval a round lasts a
// whole number of intervals, and throughput measured the poll clock and
// the host's timer latency instead of the service.
const (
	serveClients = 2
	serveFresh   = 8
	// serveFallback is how long a client waits for a finish signal
	// before it polls its open jobs anyway.
	serveFallback = 50 * time.Millisecond
	// serveJobLimit is the latency limit: a job not terminal by then
	// is a failure.
	serveJobLimit = 30 * time.Second
	// serveSetups is how many set-ups the reported set-up time is the
	// median of, after one untimed warm-up.
	serveSetups = 9
	// servePool is the number of distinct simulations documents draw
	// from (a multiple of 20, so every pool entry keeps its output
	// option); serveCheckEvery samples one document in that many for
	// the direct-run check, at most serveChecks of them.
	servePool       = 500
	serveCheckEvery = 50
	serveChecks     = 100
)

// serveStrategies are the strategies documents cycle through: cheap
// enough per simulation that a run holds thousands of jobs.
var serveStrategies = []string{"min-energy", "max-lifetime", "stationary", "max-lifetime-routing", "cluster-rotation"}

// serveWorkload has no state shared between its passes.
type serveWorkload struct{}

// doc is one generated scenario document.
type doc struct {
	idx   int
	body  []byte
	trace bool
}

// docSpec is the part of the scenario schema the documents use.
type docSpec struct {
	Name        string           `json:"name"`
	Seed        int              `json:"seed"`
	Strategy    string           `json:"strategy"`
	RandomNodes map[string]any   `json:"random_nodes"`
	Flows       []map[string]any `json:"flows"`
	Output      map[string]any   `json:"output,omitempty"`
}

// docGen derives documents from the seed. It draws servePool
// simulations once — placement seed, strategy, node count, flow length,
// output option — keeping only draws whose flow greedy routing can
// connect, so every document builds. Document i is pool entry
// i mod servePool under the name "mix-i": a distinct canonical document
// (the name is part of the fingerprint), so a miss on it runs a real
// simulation, while generating it costs one JSON encoding inside the
// measured region instead of a world build.
type docGen struct {
	pool []docSpec
}

// newDocGen draws the pool.
func newDocGen(seed int64) (*docGen, error) {
	g := &docGen{}
	for j := 0; j < servePool; j++ {
		sp, err := drawSpec(seed, j)
		if err != nil {
			return nil, err
		}
		g.pool = append(g.pool, sp)
	}
	return g, nil
}

// drawSpec draws pool entry j from its own stream.
func drawSpec(seed int64, j int) (docSpec, error) {
	rng := stats.NewSource(int64(sweep.DeriveSeed(seed, uint64(j))))
	for attempt := 0; attempt < 100; attempt++ {
		sp := docSpec{
			Name:     fmt.Sprintf("pool-%d", j),
			Seed:     rng.Intn(1 << 30),
			Strategy: serveStrategies[j%len(serveStrategies)],
			RandomNodes: map[string]any{
				"count": 12 + rng.Intn(12), "field_w": 500, "field_h": 500,
				"energy_lo": 5000, "energy_hi": 10000,
			},
			Flows: []map[string]any{{"src": 0, "dst": 1, "length_kb": 8 + rng.Intn(24)}},
		}
		switch j % 20 {
		case 7:
			sp.Output = map[string]any{"trace": true}
		case 13:
			sp.Output = map[string]any{"sample_interval_s": 1}
		}
		body, err := json.Marshal(sp)
		if err != nil {
			return docSpec{}, err
		}
		spec, err := scenario.Load(bytes.NewReader(body))
		if err != nil {
			return docSpec{}, fmt.Errorf("pool document %d: %w", j, err)
		}
		if _, _, err := spec.Build(); err == nil {
			return sp, nil
		}
	}
	return docSpec{}, fmt.Errorf("pool document %d: no routable draw", j)
}

// get returns document i.
func (g *docGen) get(i int) (doc, error) {
	sp := g.pool[i%len(g.pool)]
	sp.Name = fmt.Sprintf("mix-%d", i)
	body, err := json.Marshal(sp)
	return doc{idx: i, body: body, trace: sp.Output["trace"] == true}, err
}

// server is one running engine behind a loopback listener.
type server struct {
	eng  *serve.Server
	http *http.Server
	base string
	done chan struct{}
}

// startServer starts the engine and its listener and waits for the first
// 200 from /healthz.
func startServer(hooks serve.Hooks) (*server, time.Duration, error) {
	t0 := time.Now()
	eng := serve.New(serve.Config{Hooks: hooks})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = eng.Shutdown(context.Background()) // no job was accepted; the listen error is the one to report
		return nil, 0, err
	}
	s := &server{eng: eng, http: &http.Server{Handler: eng.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // ErrServerClosed once stop runs; any other failure shows as failed requests
	}()
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 10*time.Second {
			_ = s.stop() // the health failure is the error to report
			return nil, 0, fmt.Errorf("server not healthy after 10s: %v", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stop shuts the listener and the engine down and waits for both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := s.http.Shutdown(ctx)
	<-s.done
	return errors.Join(herr, s.eng.Shutdown(ctx))
}

// barrier is a reusable rendezvous of the clients at each round start.
// The last client to arrive runs release (every job of the last round is
// then terminal and read) and decides, for all of them, whether the run
// goes on.
type barrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int
	waiting  int
	gen      int
	stop     bool
	deadline time.Time
	release  func()
}

// newBarrier returns a barrier for n clients that stops rounds after
// deadline.
func newBarrier(n int, deadline time.Time, release func()) *barrier {
	b := &barrier{n: n, deadline: deadline, release: release}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until every client arrived and reports whether to stop.
func (b *barrier) wait() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	g := b.gen
	b.waiting++
	if b.waiting == b.n {
		b.release()
		b.waiting = 0
		b.gen++
		b.stop = time.Now().After(b.deadline)
		b.cond.Broadcast()
		return b.stop
	}
	for g == b.gen {
		b.cond.Wait()
	}
	return b.stop
}

// finishBoard collects the ids of jobs the engine reported terminal
// through its JobFinished hook, so clients fetch a job the moment it is
// done. It is cleared at every round barrier, when no job is open.
type finishBoard struct {
	mu   sync.Mutex
	done map[string]bool
	wake chan struct{} // closed and replaced on every finish
}

// newFinishBoard returns an empty board.
func newFinishBoard() *finishBoard {
	return &finishBoard{done: map[string]bool{}, wake: make(chan struct{})}
}

// mark records that job id is terminal and wakes the waiting clients.
func (f *finishBoard) mark(id string) {
	f.mu.Lock()
	f.done[id] = true
	close(f.wake)
	f.wake = make(chan struct{})
	f.mu.Unlock()
}

// clear forgets every recorded id.
func (f *finishBoard) clear() {
	f.mu.Lock()
	clear(f.done)
	f.mu.Unlock()
}

// ready splits open into the jobs reported terminal and the rest,
// waiting until at least one is reported. A board that reports nothing
// within wait returns every open job as ready, so a lost signal costs
// one poll instead of a hang.
func (f *finishBoard) ready(open []*pending, wait time.Duration) (ready, rest []*pending) {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		f.mu.Lock()
		for _, p := range open {
			if f.done[p.id] {
				ready = append(ready, p)
			} else {
				rest = append(rest, p)
			}
		}
		wake := f.wake
		f.mu.Unlock()
		if len(ready) > 0 {
			return ready, rest
		}
		rest = rest[:0]
		select {
		case <-wake:
		case <-timer.C:
			return open, nil
		}
	}
}

// session is the state the clients of one run share: the generated
// documents, the first result body seen per fingerprint, the tallies and
// the counters.
type session struct {
	base  string
	rec   *recorder
	board *finishBoard

	gen *docGen

	mu       sync.Mutex
	bodies   map[string][]byte // fingerprint → first result body, until its second
	byIdx    map[int][]byte    // checked document → result bytes
	traces   map[int][]byte    // checked trace document → trace bytes
	miss     tally
	hit      tally
	other    tally // trace fetches
	subs     int
	cached   int
	coalesce int
	refused  int
	polls    int
	rtt      []float64
	loadUs   []float64
	fetchMs  []float64
	traceKB  []float64
	resultKB []float64
	failures []string
}

// pending is one submission awaiting a terminal envelope.
type pending struct {
	doc     doc
	id      string
	sent    time.Time
	outcome string
	span    int
}

// client is one closed-loop client with its own connection.
type client struct {
	s  *session
	id int
	hc *http.Client
}

// failf records a failure reason (the caller counts the operation).
func (s *session) failf(format string, args ...any) {
	s.mu.Lock()
	if len(s.failures) < 20 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
	s.mu.Unlock()
}

// do sends one request and reads the whole body.
func (c *client) do(method, path string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, c.s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// round submits docs, then polls until each is terminal or failed.
func (c *client) round(docs []doc) {
	s := c.s
	var open []*pending
	for _, d := range docs {
		p := &pending{doc: d, span: s.rec.begin("serve.job", 0, int64(d.idx))}
		if s.rec != nil {
			sp := s.rec.begin("scenario.load", p.span, int64(d.idx))
			t0 := time.Now()
			spec, err := scenario.Load(bytes.NewReader(d.body))
			if err == nil {
				_, err = spec.Fingerprint()
			}
			us := float64(time.Since(t0)) / float64(time.Microsecond)
			s.rec.end(sp)
			s.mu.Lock()
			s.loadUs = append(s.loadUs, us)
			s.mu.Unlock()
			if err != nil {
				s.failf("document %d: %v", d.idx, err)
			}
		}
		sp := s.rec.begin("serve.submit", p.span, int64(d.idx))
		p.sent = time.Now()
		code, hdr, body, err := c.do(http.MethodPost, "/v1/jobs", d.body)
		rtt := ms(time.Since(p.sent))
		s.rec.end(sp)
		s.mu.Lock()
		s.subs++
		s.rtt = append(s.rtt, rtt)
		s.mu.Unlock()
		if err != nil || (code != http.StatusOK && code != http.StatusAccepted) {
			s.mu.Lock()
			if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
				s.refused++
			}
			s.miss.fail()
			s.mu.Unlock()
			s.failf("submit of document %d: HTTP %d: %v %s", d.idx, code, err, bytes.TrimSpace(body))
			s.rec.end(p.span)
			continue
		}
		p.outcome = hdr.Get("Imobif-Submission")
		var env serve.Envelope
		if err := json.Unmarshal(body, &env); err != nil {
			c.finish(p, nil, err)
			continue
		}
		p.id = env.ID
		if env.Status.Terminal() {
			c.finish(p, &env, nil)
			continue
		}
		open = append(open, p)
	}
	for len(open) > 0 {
		ready, rest := s.board.ready(open, serveFallback)
		for _, p := range ready {
			sp := s.rec.begin("serve.poll", p.span, int64(p.doc.idx))
			code, _, body, err := c.do(http.MethodGet, "/v1/jobs/"+p.id, nil)
			s.rec.end(sp)
			s.mu.Lock()
			s.polls++
			s.mu.Unlock()
			var env serve.Envelope
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("poll: HTTP %d %s", code, bytes.TrimSpace(body))
			}
			if err == nil {
				err = json.Unmarshal(body, &env)
			}
			switch {
			case err != nil:
				c.finish(p, nil, err)
			case env.Status.Terminal():
				c.finish(p, &env, nil)
			case time.Since(p.sent) > serveJobLimit:
				c.finish(p, nil, fmt.Errorf("still %s after %v", env.Status, serveJobLimit))
			default:
				rest = append(rest, p)
			}
		}
		open = rest
	}
}

// finish accounts one submission that reached a terminal envelope (or
// failed on the way): latency by class, result-byte identity per
// fingerprint, and the trace fetch of trace documents.
func (c *client) finish(p *pending, env *serve.Envelope, err error) {
	s := c.s
	lat := ms(time.Since(p.sent))
	if err == nil && env.Status != serve.StatusDone {
		err = fmt.Errorf("job %s ended %s: %s", env.ID, env.Status, env.Error)
	}
	if err == nil && len(env.Result) == 0 {
		err = fmt.Errorf("job %s has no result", env.ID)
	}
	s.mu.Lock()
	t := &s.miss
	if p.outcome == "cached" {
		t = &s.hit
		s.cached++
	} else if p.outcome == "coalesced" {
		s.coalesce++
	}
	if err == nil {
		// Each document is submitted exactly twice, so the first body
		// waits here for the second and is then dropped, which keeps the
		// benchmark's own heap flat however many jobs a run completes.
		if prev, ok := s.bodies[env.Fingerprint]; ok {
			delete(s.bodies, env.Fingerprint)
			if !bytes.Equal(prev, env.Result) {
				err = fmt.Errorf("job %s (%s): result differs from the first body for its fingerprint", env.ID, p.outcome)
			}
		} else {
			s.bodies[env.Fingerprint] = env.Result
			s.resultKB = append(s.resultKB, float64(len(env.Result))/1024)
		}
		checked := p.doc.idx%serveCheckEvery == 0 || (p.doc.trace && p.doc.idx%(5*serveCheckEvery) == 7)
		if _, seen := s.byIdx[p.doc.idx]; checked && (seen || len(s.byIdx) < serveChecks) {
			s.byIdx[p.doc.idx] = env.Result
		}
	}
	if err != nil {
		t.fail()
	} else {
		t.ok(lat)
	}
	s.mu.Unlock()
	defer s.rec.end(p.span)
	if err != nil {
		s.failf("document %d: %v", p.doc.idx, err)
		return
	}
	if p.doc.trace && p.outcome == "queued" {
		sp := s.rec.begin("trace.fetch", p.span, int64(p.doc.idx))
		t0 := time.Now()
		code, _, body, err := c.do(http.MethodGet, "/v1/jobs/"+env.ID+"/trace", nil)
		el := ms(time.Since(t0))
		s.rec.end(sp)
		if err == nil && (code != http.StatusOK || len(body) == 0) {
			err = fmt.Errorf("trace fetch: HTTP %d, %d bytes", code, len(body))
		}
		s.mu.Lock()
		if err != nil {
			s.other.fail()
		} else {
			s.other.ok(el)
			s.fetchMs = append(s.fetchMs, el)
			s.traceKB = append(s.traceKB, float64(len(body))/1024)
			if _, ok := s.byIdx[p.doc.idx]; ok {
				s.traces[p.doc.idx] = body
			}
		}
		s.mu.Unlock()
		if err != nil {
			s.failf("document %d: %v", p.doc.idx, err)
		}
	}
}

// run is one client's loop: rounds until the barrier says stop, then a
// last round that only resubmits the previous round's documents. Round r
// owns the document indices from r·(1+serveClients·serveFresh): the
// first is the shared one, then serveFresh per client, so which client
// sends which document depends only on the seed. A document that cannot
// be generated counts as a failed submission; the client keeps meeting
// the barrier either way.
func (c *client) run(b *barrier) {
	var prev []doc
	for r := 0; ; r++ {
		stop := b.wait()
		var docs, fresh []doc
		base := r * (1 + serveClients*serveFresh)
		for i := 0; !stop && i <= serveFresh; i++ {
			idx := base
			if i > 0 {
				idx = base + 1 + c.id*serveFresh + i - 1
			}
			d, err := c.s.gen.get(idx)
			if err != nil {
				c.s.mu.Lock()
				c.s.miss.fail()
				c.s.mu.Unlock()
				c.s.failf("%v", err)
				continue
			}
			if i == 0 {
				docs = append(docs, d)
			} else {
				fresh = append(fresh, d)
			}
		}
		docs = append(append(docs, fresh...), prev...)
		c.round(docs)
		if stop {
			return
		}
		prev = fresh
	}
}

// runSession runs the clients against the server for the given seconds
// and returns the shared state and the wall time of the rounds.
func runSession(o options, srv *server, gen *docGen, board *finishBoard, rec *recorder) (*session, time.Duration) {
	s := &session{
		base:   srv.base,
		rec:    rec,
		board:  board,
		gen:    gen,
		bodies: map[string][]byte{},
		byIdx:  map[int][]byte{},
		traces: map[int][]byte{},
	}
	runtime.GC()
	b := newBarrier(serveClients, time.Now().Add(time.Duration(o.seconds*float64(time.Second))), board.clear)
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < serveClients; i++ {
		c := &client{s: s, id: i, hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.hc.CloseIdleConnections()
			c.run(b)
		}()
	}
	wg.Wait()
	return s, time.Since(t0)
}

// directCheck re-runs the sampled documents through scenario.Load, Build
// and RunContext in-process and compares each run's wire form (and trace
// bytes) with what the service returned.
func directCheck(s *session) []string {
	var bad []string
	idxs := make([]int, 0, len(s.byIdx))
	for i := range s.byIdx {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		d, err := s.gen.get(i)
		if err == nil {
			err = directOne(d, s.byIdx[i], s.traces[i])
		}
		if err != nil {
			bad = append(bad, fmt.Sprintf("direct check of document %d: %v", i, err))
		}
	}
	return bad
}

// directOne runs one document directly and compares.
func directOne(d doc, served, servedTrace []byte) error {
	spec, err := scenario.Load(bytes.NewReader(d.body))
	if err != nil {
		return err
	}
	var opts []scenario.BuildOption
	var buf bytes.Buffer
	var jw *trace.JSONLWriter
	if spec.Output != nil && spec.Output.Trace {
		jw = trace.NewJSONLWriter(&buf)
		opts = append(opts, scenario.WithSink(jw))
	}
	if spec.Output != nil && spec.Output.SampleIntervalS > 0 {
		opts = append(opts, scenario.WithSampleInterval(spec.Output.SampleIntervalS))
	}
	w, _, err := spec.Build(opts...)
	if err != nil {
		return err
	}
	res, err := w.RunContext(context.Background())
	if err != nil {
		return err
	}
	want, err := json.Marshal(serve.RunResultFrom(spec.Seed, res))
	if err != nil {
		return err
	}
	var out serve.Result
	if err := json.Unmarshal(served, &out); err != nil {
		return err
	}
	if len(out.Runs) != 1 {
		return fmt.Errorf("served %d runs, want 1", len(out.Runs))
	}
	got, err := json.Marshal(out.Runs[0])
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return errors.New("served run differs from the direct run")
	}
	if jw != nil && servedTrace != nil && !bytes.Equal(buf.Bytes(), servedTrace) {
		return errors.New("served trace differs from the direct run's")
	}
	return nil
}

// serveSetup prepares a session serveSetups+1 times — the document pool
// drawn (scenario.Load and Build of every pool entry) and a server
// started until its first /healthz 200 — and stops every server but the
// last, which the run uses. The first set-up is an untimed warm-up that
// absorbs the process's first-use costs. It returns the median set-up
// time in seconds and, of that, the median server start in milliseconds.
func serveSetup(seed int64, hooks serve.Hooks) (*docGen, *server, float64, float64, error) {
	var setups, starts []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		gen, err := newDocGen(seed)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		srv, d, err := startServer(hooks)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		if i > 0 {
			setups = append(setups, time.Since(t0).Seconds())
			starts = append(starts, ms(d))
		}
		if len(setups) == serveSetups {
			return gen, srv, median(setups), median(starts), nil
		}
		if err := srv.stop(); err != nil {
			return nil, nil, 0, 0, fmt.Errorf("stopping a set-up server: %w", err)
		}
	}
}

// account turns a finished session into the report's counts and
// end-to-end metrics.
func (s *session) account(rep *report, wall time.Duration) {
	for _, t := range []*tally{&s.miss, &s.hit, &s.other} {
		rep.attempted += t.attempted
		rep.failed += t.failed
	}
	rep.failures = append(rep.failures, s.failures...)
	for _, m := range directCheck(s) {
		rep.fail("%s", m)
	}
	jobs := s.miss.attempted - s.miss.failed + s.hit.attempted - s.hit.failed
	rep.e2e["work_per_s"] = float64(jobs) / wall.Seconds()
	miss, hit := summarize(s.miss.lat), summarize(s.hit.lat)
	rep.named = []namedMetric{
		{"jobs_per_s", "1/s", rep.e2e["work_per_s"]},
		{"miss_p50_ms", "ms", finite(miss.P50)},
		{"miss_p99_ms", "ms", finite(miss.Tail)},
		{"hit_p50_ms", "ms", finite(hit.P50)},
		{"hit_p99_ms", "ms", finite(hit.Tail)},
		{"misses", "count", float64(miss.N)},
		{"hits", "count", float64(hit.N)},
	}
	rep.notes = append(rep.notes,
		distNote("miss latency", "ms", miss),
		distNote("hit latency", "ms", hit),
		fmt.Sprintf("%d direct-run checks", len(s.byIdx)))
}

// measure runs the untraced session.
func (serveWorkload) measure(o options) (*report, error) {
	rep := newReport()
	board := newFinishBoard()
	gen, srv, setup, start, err := serveSetup(o.seed, serve.Hooks{
		JobFinished: func(id string, _ serve.Status) { board.mark(id) },
	})
	if err != nil {
		return nil, err
	}
	hs := startHeapSampler()
	s, wall := runSession(o, srv, gen, board, nil)
	heap := hs.stop()
	if err := srv.stop(); err != nil {
		rep.fail("server shutdown: %v", err)
	}
	rep.e2e["setup_s"] = setup
	s.account(rep, wall)
	rep.setHeap(heap)
	rep.named = append(rep.named, namedMetric{"server_start_ms", "ms", start})
	return rep, nil
}

// hookTimes records each job's lifecycle instants from serve.Hooks.
type hookTimes struct {
	mu                        sync.Mutex
	queued, started, finished map[string]time.Time
}

// hooks returns the serve.Hooks that fill h and report finished jobs to
// board.
func (h *hookTimes) hooks(board *finishBoard) serve.Hooks {
	h.queued, h.started, h.finished = map[string]time.Time{}, map[string]time.Time{}, map[string]time.Time{}
	mark := func(m map[string]time.Time, id string) {
		now := time.Now()
		h.mu.Lock()
		m[id] = now
		h.mu.Unlock()
	}
	return serve.Hooks{
		JobQueued:  func(id, _ string) { mark(h.queued, id) },
		JobStarted: func(id, _ string) { mark(h.started, id) },
		JobFinished: func(id string, _ serve.Status) {
			mark(h.finished, id)
			board.mark(id)
		},
	}
}

// trace runs a session with spans, lifecycle hooks, a CPU profile and
// MemStats deltas.
func (serveWorkload) trace(o options, rec *recorder) (*report, error) {
	rep := newReport()
	var ht hookTimes
	board := newFinishBoard()
	gen, srv, setup, _, err := serveSetup(o.seed, ht.hooks(board))
	if err != nil {
		return nil, err
	}
	mem0 := memMark()
	prof, err := startCPU()
	if err != nil {
		_ = srv.stop() // the profiler error is the one to report
		return nil, err
	}
	hs := startHeapSampler()
	s, wall := runSession(o, srv, gen, board, rec)
	cpu, perr := prof.stop()
	heap := hs.stop()
	mem := since(mem0)
	if err := srv.stop(); err != nil {
		rep.fail("server shutdown: %v", err)
	}
	if perr != nil {
		return nil, perr
	}
	rep.e2e["setup_s"] = setup
	s.account(rep, wall)
	rep.setHeap(heap)

	L := rep.layers
	addDist(L, "serve.miss", "ms", summarize(s.miss.lat))
	addDist(L, "serve.hit", "ms", summarize(s.hit.lat))
	var wait, exec []float64
	ht.mu.Lock()
	for id, q := range ht.queued {
		st, ok := ht.started[id]
		if !ok {
			continue
		}
		wait = append(wait, ms(st.Sub(q)))
		if f, ok := ht.finished[id]; ok {
			exec = append(exec, ms(f.Sub(st)))
		}
	}
	ht.mu.Unlock()
	qd := summarize(wait)
	addDist(L, "serve.queue_wait", "ms", qd)
	L["serve.exec_p50_ms"] = summarize(exec).P50
	L["serve.submit_rtt_ms"] = summarize(s.rtt).P50
	L["scenario.load_us"] = summarize(s.loadUs).P50
	L["serve.hit_ratio"] = float64(s.cached) / float64(max(s.subs, 1))
	L["serve.coalesce_ratio"] = float64(s.coalesce) / float64(max(s.subs, 1))
	L["serve.polls_per_miss"] = float64(s.polls) / float64(max(s.miss.attempted, 1))
	L["serve.refused"] = float64(s.refused)
	L["serve.result_kb"] = meanOf(s.resultKB)
	L["trace.fetch_ms"] = summarize(s.fetchMs).P50
	L["trace.kb"] = meanOf(s.traceKB)
	addCPU(L, "", cpu)
	L["runtime.alloc_mb"] = mem.AllocMB
	L["runtime.gc_cycles"] = mem.GCCycles
	rep.notes = append(rep.notes,
		distNote("queue wait", "ms", qd),
		distNote("exec", "ms", summarize(exec)),
		distNote("submit rtt", "ms", summarize(s.rtt)),
		distNote("scenario.Load+Fingerprint", "us", summarize(s.loadUs)),
		fmt.Sprintf("CPU by layer: %s", topLayers(cpu, 10)))
	rep.notes = append(rep.notes, spanTable(byName(rec.closed()))...)
	return rep, nil
}

// meanOf is the arithmetic mean (0 for no values).
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
