package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// TestBadFlagsRefused: a value out of range exits 2 naming its flag, before
// loadgen makes any request of the server.
func TestBadFlagsRefused(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-tenants", "0"}, "-tenants"},
		{[]string{"-tenants", "-1"}, "-tenants"},
		{[]string{"-jobs", "0"}, "-jobs"},
		{[]string{"-jobs", "-5"}, "-jobs"},
		{[]string{"-machines", "0"}, "-machines"},
		{[]string{"-load", "0"}, "-load"},
		{[]string{"-load", "-1"}, "-load"},
		{[]string{"-load", "NaN"}, "-load"},
		{[]string{"-load", "Inf"}, "-load"},
		{[]string{"-rate", "-1"}, "-rate"},
		{[]string{"-rate", "NaN"}, "-rate"},
		{[]string{"-rate", "+Inf"}, "-rate"},
		{[]string{"-report-out", "r.json"}, "-report-out"},
		{[]string{"-expect-shards", "2"}, "-expect-shards"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-server", srv.URL, "-wait-ready", "0s"}, tc.args...), &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), tc.flag+" must be") {
			t.Errorf("loadgen %v: exit %d, stderr %q; want 2 naming %s", tc.args, code, stderr.String(), tc.flag)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("loadgen made %d requests of the server while refusing its flags", n)
	}
	// The same server does see a run whose flags are good.
	var stderr bytes.Buffer
	if code := run([]string{"-server", srv.URL, "-no-feed", "-rate", "0"}, &bytes.Buffer{}, &stderr); code != 0 || requests.Load() == 0 {
		t.Fatalf("loadgen -no-feed: exit %d after %d requests, stderr %q", code, requests.Load(), stderr.String())
	}
}
