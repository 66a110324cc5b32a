package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"privcount/internal/cluster"
	"privcount/internal/service"
)

// The handler-level suite lives with the handlers in
// internal/httpapi; this package tests the daemon wiring (newMux, the
// run lifecycle) plus the cross-version guarantees in v2_test.go.

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc := service.New(service.Config{Capacity: 32, Seed: 7})
	t.Cleanup(svc.Close)
	mux, _, err := newMux(svc, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestGracefulShutdownDrains boots the real server loop, serves a
// request, then delivers the signal-context cancellation and checks run
// returns cleanly — listener closed, build workers joined — within the
// shutdown grace. Run under -race this is the shutdown leak test.
func TestGracefulShutdownDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, "127.0.0.1:0", service.Config{Capacity: 16, Seed: 3}, nil, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("run exited before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	resp, err := http.Post("http://"+addr+"/v2/query", "application/json",
		bytes.NewReader([]byte(`{"ops":[{"op":"sample","id":"gm:n=8:a=0.5","count":2}]}`)))
	if err != nil {
		t.Fatalf("request against live server: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample status %d", resp.StatusCode)
	}
	// Park a slow detached build so shutdown has something in flight to
	// cancel (a cold n=96 minimax solve runs far beyond this test, so a
	// timely exit proves the drain cancelled it). PUT admission is
	// detached exactly like the old wait=false flow.
	req, err := http.NewRequest(http.MethodPut,
		"http://"+addr+"/v2/mechanisms/lp-minimax:n=96:a=0.9:none:p=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async admission status %d, want 202", resp.StatusCode)
	}

	cancel() // what SIGTERM does in main
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v, want nil on graceful shutdown", err)
		}
	case <-time.After(shutdownGrace + 30*time.Second):
		t.Fatal("run did not return after shutdown signal")
	}
	// The listener is gone.
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// TestClusterWiring boots run with a cluster config (a one-member
// fleet whose self URL is the membership's only entry) and checks the
// flag-driven wiring end to end: the node starts, GET /v2/cluster
// answers with the configured ring, and shutdown closes the sync agent
// before the service without hanging.
func TestClusterWiring(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	self := "http://127.0.0.1:9" // ring identity only; never dialed (sync skips self)
	ccfg := &cluster.Config{
		Self:         self,
		Membership:   cluster.Static([]cluster.Peer{{URL: self}}),
		PollInterval: time.Hour, // no background passes during the test
	}
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, "127.0.0.1:0", service.Config{Capacity: 16, Seed: 5}, ccfg, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("run exited before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	resp, err := http.Get("http://" + addr + "/v2/cluster")
	if err != nil {
		t.Fatalf("GET /v2/cluster: %v", err)
	}
	var st struct {
		Self        string   `json:"self"`
		Peers       []string `json:"peers"`
		Replication int      `json:"replication"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode cluster status: %v", err)
	}
	resp.Body.Close()
	if st.Self != self || len(st.Peers) != 1 || st.Replication != 1 {
		t.Errorf("cluster status = %+v, want self=%s peers=1 replication=1", st, self)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("shutdown hung with a cluster node attached")
	}
}

// TestOpenStoreReapsTemps plants what a daemon killed mid-Put leaves
// behind — a staged temp file — next to a stored artifact and a
// quarantined one, and checks that start-up's openStore removes only
// the temp file.
func TestOpenStoreReapsTemps(t *testing.T) {
	dir := t.TempDir()
	plant := map[string]bool{ // name -> survives start-up
		".put-x":                      false,
		".put-123456":                 false,
		"gm:n=8:a=0.5.pca":            true,
		"gm:n=9:a=0.5.pca.corrupt":    true,
		"unrelated.txt":               true,
		".hidden-but-not-a-temp-file": true,
	}
	for name := range plant {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if store.Dir() != dir {
		t.Fatalf("store dir %q, want %q", store.Dir(), dir)
	}
	for name, survives := range plant {
		_, err := os.Stat(filepath.Join(dir, name))
		switch {
		case survives && err != nil:
			t.Errorf("%s: %v after start-up, want it untouched", name, err)
		case !survives && !errors.Is(err, os.ErrNotExist):
			t.Errorf("%s: still present after start-up (stat err %v)", name, err)
		}
	}
}
