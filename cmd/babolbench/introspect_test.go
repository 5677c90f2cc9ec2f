package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// TestIntrospectionServesLiveSweep is `-http` in process: the mux
// serveIntrospection listens with, on a test server, fed by a short
// workload sweep. /metrics, /ftl and /tenants answer 200 with valid JSON
// while the sweep runs — the sweep's own workers poll them every 4096
// events — and /tenants lists the four tenants once it is done. CI runs
// it under -race.
func TestIntrospectionServesLiveSweep(t *testing.T) {
	live := obs.NewSyncMetrics()
	srv := httptest.NewServer(introspectionMux(live))
	defer srv.Close()
	// poll runs on sweep workers too, so it fails the test with t.Error.
	poll := func() (tenants int) {
		for _, path := range []string{"/metrics", "/ftl", "/tenants"} {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Error(err)
				return 0
			}
			var view struct{ Tenants []struct{ Tenant string } }
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(body, &view) != nil {
				t.Errorf("GET %s: %s, %v:\n%s", path, resp.Status, err, body)
			}
			tenants = len(view.Tenants)
		}
		return tenants
	}

	var events atomic.Int64
	opt := newCLI(io.Discard).options()
	opt.Ops = 24
	opt.Live = obs.Multi{live, obs.Func(func(obs.Event) {
		if events.Add(1)%4096 == 1 {
			poll()
		}
	})}
	if err := runWorkload(newCLI(io.Discard), opt, io.Discard); err != nil {
		t.Fatal(err)
	}
	// More than 4096 events means at least two polls mid-sweep.
	if n := poll(); events.Load() <= 4096 || n != 4 {
		t.Errorf("a sweep of %d events, then %d tenants; want more than 4096 and 4", events.Load(), n)
	}
}
