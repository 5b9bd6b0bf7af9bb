package main

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// smokeScenario is a tiny two-node scenario that completes in well under
// a second of wall time, so the smoke path stays fast under `go test`.
const smokeScenario = `{
  "name": "smoke-pair",
  "range_meters": 200,
  "nodes": [
    {"x": 0, "y": 0, "joules": 50000},
    {"x": 150, "y": 0, "joules": 50000}
  ],
  "flows": [{"src": 0, "dst": 1, "length_kb": 64}]
}`

// TestRunSmoke drives the -smoke entry point end to end: write a
// scenario file, run the loopback submit→poll→assert loop, and check
// the success banner reports delivery.
func TestRunSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pair.json")
	if err := os.WriteFile(path, []byte(smokeScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runSmoke(&out, serve.Config{Workers: 2, QueueDepth: 8}, path); err != nil {
		t.Fatalf("runSmoke: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "submitted") || !strings.Contains(got, "done") {
		t.Fatalf("smoke output missing submit/done banner:\n%s", got)
	}
	if !strings.Contains(got, "64 KB delivered") {
		t.Fatalf("smoke output missing delivery total:\n%s", got)
	}
}

// TestRunSmokeMissingFile pins the failure path: a nonexistent scenario
// file errors instead of hanging or panicking.
func TestRunSmokeMissingFile(t *testing.T) {
	var out bytes.Buffer
	err := runSmoke(&out, serve.Config{Workers: 1, QueueDepth: 1}, filepath.Join(t.TempDir(), "absent.json"))
	if err == nil {
		t.Fatal("runSmoke succeeded on a missing file")
	}
}

// TestRunSmokeBadScenario pins the rejection path: a scenario the
// validator refuses surfaces the HTTP 400 as an error.
func TestRunSmokeBadScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"flows":[{"src":0,"dst":9,"length_kb":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	start := time.Now()
	err := runSmoke(&out, serve.Config{Workers: 1, QueueDepth: 1}, path)
	if err == nil {
		t.Fatal("runSmoke accepted an invalid scenario")
	}
	if !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("error %v, want the HTTP 400 surfaced", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("rejection path took %s", elapsed)
	}
}

// TestHTTPServerBoundsHeaderReads pins the slow-header guard: the server
// the daemon and the smoke path both listen with must bound how long a
// client may take to send its request headers.
func TestHTTPServerBoundsHeaderReads(t *testing.T) {
	h := http.NotFoundHandler()
	srv := newHTTPServer(h)
	if srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want a positive bound", srv.ReadHeaderTimeout)
	}
	if srv.Handler == nil {
		t.Fatal("newHTTPServer dropped the handler")
	}
}
