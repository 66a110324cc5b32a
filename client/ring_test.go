package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestClusterStatusNotServed pins the single-box behaviour: a server
// without the cluster layer answers /v2/cluster with the typed 404.
func TestClusterStatusNotServed(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(Envelope{Error: &Error{Code: CodeNotAdmitted, Message: "no cluster"}})
	}))
	t.Cleanup(ts.Close)
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ClusterStatus(context.Background()); err == nil {
		t.Fatal("ClusterStatus on a single box succeeded, want typed error")
	} else if fmt.Sprint(err) == "" {
		t.Fatal("empty error")
	}
}
