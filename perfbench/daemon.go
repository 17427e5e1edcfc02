package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"jmtam/api"
	"jmtam/internal/server"
)

// daemon is one tamsimd served in-process over loopback HTTP.
type daemon struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

func startDaemon(cfg server.Config) (*daemon, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("start tamsimd: %w", err)
	}
	ts := httptest.NewServer(srv.Handler())
	return &daemon{
		srv:    srv,
		ts:     ts,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
	}, nil
}

func (d *daemon) url() string { return d.ts.URL }

func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.ts.Close()
	d.srv.Close()
}

// streamEvent is one NDJSON line of a job stream and when it arrived.
type streamEvent struct {
	api.Event
	at time.Time
}

// submit posts a job and reads its event stream to the terminal line.
// A refused request, an error or cancel event, or a stream that ends
// early is an error; the result document is returned as sent.
func (d *daemon) submit(ctx context.Context, path string, req any) ([]streamEvent, json.RawMessage, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url()+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(hr)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var env api.ErrorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&env) // best effort: the status is the failure
		return nil, nil, fmt.Errorf("POST %s: %s %+v", path, resp.Status, env.Error)
	}
	var evs []streamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		var e streamEvent
		if err := json.Unmarshal(sc.Bytes(), &e.Event); err != nil {
			return evs, nil, fmt.Errorf("POST %s: bad stream line: %w", path, err)
		}
		e.at = time.Now()
		evs = append(evs, e)
		switch e.Type {
		case api.EventResult:
			return evs, e.Result, nil
		case api.EventError, api.EventCanceled:
			return evs, nil, fmt.Errorf("POST %s: %s event: %s", path, e.Type, e.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return evs, nil, fmt.Errorf("POST %s: %w", path, err)
	}
	return evs, nil, fmt.Errorf("POST %s: stream ended without a terminal event", path)
}

// counters reads the daemon's /metricz counters.
func (d *daemon) counters(ctx context.Context) (map[string]float64, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url()+"/metricz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("GET /metricz: %w", err)
	}
	return doc.Counters, nil
}

// ratio returns a/(a+b) of two counter deltas, 0 when both are zero.
func ratio(before, after map[string]float64, a, b string) float64 {
	da, db := after[a]-before[a], after[b]-before[b]
	if da+db == 0 {
		return 0
	}
	return da / (da + db)
}
