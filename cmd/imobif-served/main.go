// Command imobif-served is the simulation-as-a-service daemon: an
// HTTP/JSON front door that accepts scenario documents (the JSON of
// internal/scenario, extended with seed, trials, and output options),
// runs them on a bounded worker pool with a FIFO queue, coalesces
// identical in-flight submissions, and caches results by canonical
// scenario fingerprint so repeated submissions return byte-identical
// bodies without recomputing.
//
// Endpoints:
//
//	POST   /v1/jobs            submit a scenario document
//	GET    /v1/jobs/{id}       job status + result
//	DELETE /v1/jobs/{id}       cancel
//	GET    /v1/jobs/{id}/trace the run's JSONL event trace
//	GET    /healthz            liveness + queue/worker/cache gauges
//
// SIGINT/SIGTERM drain: the listener closes, in-flight and queued jobs
// run to completion (bounded by -drain-timeout, after which they are
// canceled and report deterministic partial results), then the process
// exits.
//
// Usage:
//
//	imobif-served [-addr :8080] [-workers N] [-queue N] [-cache N]
//	imobif-served -smoke examples/scenarios/chain.json
//
// The -smoke form starts an in-process server on a loopback port, drives
// one submission through the real HTTP stack (submit → poll → result),
// asserts every flow delivered, and exits non-zero on any failure — the
// CI end-to-end gate behind `make serve`.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "job queue depth (full queue answers 429)")
		cache        = flag.Int("cache", 128, "result cache entries (LRU by scenario fingerprint)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to finish in-flight jobs on shutdown")
		smoke        = flag.String("smoke", "", "run an end-to-end smoke submission of this scenario file and exit")
	)
	flag.Parse()

	cfg := serve.Config{Workers: *workers, QueueDepth: *queue, CacheEntries: *cache}
	if *smoke != "" {
		if err := runSmoke(os.Stdout, cfg, *smoke); err != nil {
			fmt.Fprintf(os.Stderr, "imobif-served: smoke: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := runDaemon(cfg, *addr, *drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "imobif-served: %v\n", err)
		os.Exit(1)
	}
}

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a slow-header client cannot hold a connection open forever.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer wraps h in the daemon's http.Server settings.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// runDaemon serves the API on addr until SIGINT/SIGTERM, then drains.
func runDaemon(cfg serve.Config, addr string, drainTimeout time.Duration) error {
	logger := log.New(os.Stderr, "imobif-served: ", log.LstdFlags)
	cfg.Hooks = serve.Hooks{
		JobQueued:  func(id, fp string) { logger.Printf("queued %s fingerprint=%.12s", id, fp) },
		JobStarted: func(id, fp string) { logger.Printf("running %s fingerprint=%.12s", id, fp) },
		JobFinished: func(id string, status serve.Status) {
			logger.Printf("finished %s status=%s", id, status)
		},
	}
	srv := serve.New(cfg)
	httpSrv := newHTTPServer(srv.Handler())
	httpSrv.Addr = addr

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", addr)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	logger.Printf("signal received; draining (timeout %s)", drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Printf("drain incomplete: %v (in-flight jobs canceled)", err)
	} else {
		logger.Printf("drained cleanly")
	}
	return nil
}

// runSmoke drives one scenario through the full HTTP stack on a loopback
// listener and asserts delivery.
func runSmoke(w io.Writer, cfg serve.Config, path string) error {
	doc, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(srv.Handler())
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
		srv.Shutdown(ctx)
	}()

	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(doc))
	if err != nil {
		return err
	}
	env, err := decodeEnvelope(resp)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	fmt.Fprintf(w, "smoke: submitted %s as %s (%s)\n", path, env.ID, env.Status)

	deadline := time.Now().Add(2 * time.Minute)
	for !env.Status.Terminal() {
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %s after 2m", env.ID, env.Status)
		}
		time.Sleep(20 * time.Millisecond)
		resp, err := http.Get(base + "/v1/jobs/" + env.ID)
		if err != nil {
			return err
		}
		if env, err = decodeEnvelope(resp); err != nil {
			return fmt.Errorf("poll: %w", err)
		}
	}
	if env.Status != serve.StatusDone {
		return fmt.Errorf("job %s ended %s: %s", env.ID, env.Status, env.Error)
	}
	var res serve.Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	var delivered float64
	for i, run := range res.Runs {
		for f, flow := range run.Flows {
			if !flow.Completed {
				return fmt.Errorf("run %d flow %d did not complete (delivered %.0f bytes)", i, f, flow.DeliveredBytes)
			}
			delivered += flow.DeliveredBytes
		}
	}
	if delivered <= 0 {
		return errors.New("no bytes delivered")
	}
	fmt.Fprintf(w, "smoke: %s done — %d run(s), %.0f KB delivered, mean energy %.1f J\n",
		env.ID, len(res.Runs), delivered/1024, res.MeanTotalJoules)
	return nil
}

// decodeEnvelope reads a job envelope response, failing on non-2xx
// statuses.
func decodeEnvelope(resp *http.Response) (serve.Envelope, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return serve.Envelope{}, err
	}
	if resp.StatusCode/100 != 2 {
		return serve.Envelope{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var env serve.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return serve.Envelope{}, err
	}
	return env, nil
}
