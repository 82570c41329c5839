package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"qb5000"
	"qb5000/internal/leakcheck"
)

func newTestServer(t *testing.T) (*httptest.Server, *Server) {
	return newTestServerWithConfig(t, Config{})
}

func newTestServerWithConfig(t *testing.T, c Config) (*httptest.Server, *Server) {
	t.Helper()
	// Cleanups run LIFO: the server closes, then the shared client drops
	// its keep-alive connections, and only then does the leak check assert
	// that every handler and transport goroutine is gone.
	t.Cleanup(leakcheck.Take(t).Done)
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	f := qb5000.New(qb5000.Config{Model: "LR", Horizons: []time.Duration{time.Hour}, Seed: 1})
	s := NewWithConfig(f, c)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

// traceBody builds two days of observations for one hot query.
func traceBody() string {
	var sb strings.Builder
	start := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)
	for h := 0; h < 48; h++ {
		at := start.Add(time.Duration(h) * time.Hour)
		rate := 10 + 5*(h%24)
		fmt.Fprintf(&sb, "%s\t%d\tSELECT a FROM t WHERE x = %d\n", at.Format(time.RFC3339), rate, h)
	}
	return sb.String()
}

func TestObserveMaintainForecast(t *testing.T) {
	ts, _ := newTestServer(t)

	resp, err := http.Post(ts.URL+"/observe", "text/plain", strings.NewReader(traceBody()))
	if err != nil {
		t.Fatal(err)
	}
	var obs ObserveResult
	if err := json.NewDecoder(resp.Body).Decode(&obs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if obs.Ingested == 0 || obs.Rejected != 0 {
		t.Fatalf("observe = %+v", obs)
	}

	resp, err = http.Post(ts.URL+"/maintain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var st qb5000.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Templates != 1 || st.Clusters != 1 {
		t.Fatalf("stats after maintain = %+v", st)
	}

	resp, err = http.Get(ts.URL + "/forecast?horizon=1h")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forecast status %d", resp.StatusCode)
	}
	var preds []qb5000.ClusterForecast
	if err := json.NewDecoder(resp.Body).Decode(&preds); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(preds) != 1 || preds[0].TotalRate < 0 {
		t.Fatalf("forecast = %+v", preds)
	}
}

func TestObserveCountsRejections(t *testing.T) {
	ts, _ := newTestServer(t)
	body := "2018-05-01T00:00:00Z\tNOT VALID SQL\n2018-05-01T00:00:00Z\tSELECT a FROM t\n"
	resp, err := http.Post(ts.URL+"/observe", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var obs ObserveResult
	json.NewDecoder(resp.Body).Decode(&obs)
	resp.Body.Close()
	if obs.Ingested != 1 || obs.Rejected != 1 {
		t.Fatalf("observe = %+v", obs)
	}
}

func TestEndpointErrors(t *testing.T) {
	ts, s := newTestServer(t)
	// Maintain before any observations.
	resp, _ := http.Post(ts.URL+"/maintain", "", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("maintain-empty status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Bad horizon.
	resp, _ = http.Get(ts.URL + "/forecast?horizon=banana")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-horizon status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Untrained horizon.
	resp, _ = http.Post(ts.URL+"/observe", "text/plain", strings.NewReader("2018-05-01T00:00:00Z\tSELECT a FROM t\n"))
	resp.Body.Close()
	resp, _ = http.Get(ts.URL + "/forecast?horizon=9h")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("untrained-horizon status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Wrong methods.
	resp, _ = http.Get(ts.URL + "/observe")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /observe status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Post(ts.URL+"/stats", "", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /stats status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Malformed trace body: 400, but the entries before the bad line fold.
	before := s.f.Stats().TotalQueries
	resp, _ = http.Post(ts.URL+"/observe", "text/plain", strings.NewReader("2018-05-01T00:01:00Z\t3\tSELECT a FROM t\nno tab"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed-body status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if got := s.f.Stats().TotalQueries - before; got != 3 {
		t.Fatalf("entries before the malformed line folded %d queries, want 3", got)
	}
}

// TestMaintainAfterRestore: a forecaster restored from a snapshot already has
// a clock (the restored LastSeen), so Maintain must work with no observe in
// between and publish an epoch.
func TestMaintainAfterRestore(t *testing.T) {
	_, s := newTestServer(t)
	if _, err := s.f.ObserveTrace(strings.NewReader(traceBody())); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := s.f.Save(&snap); err != nil {
		t.Fatal(err)
	}
	f, err := qb5000.Load(qb5000.Config{Model: "LR", Horizons: []time.Duration{time.Hour}, Seed: 1}, &snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := New(f).Maintain(context.Background()); err != nil {
		t.Fatalf("maintain after restore: %v", err)
	}
	if st := f.Stats(); st.Clusters != 1 || st.TrackedClusters != 1 {
		t.Fatalf("no epoch published after restore: %+v", st)
	}
	if _, err := f.Forecast(time.Hour); err != nil {
		t.Fatalf("forecast after restore: %v", err)
	}
}

func TestStatsAndTemplates(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/observe", "text/plain", strings.NewReader(traceBody()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st qb5000.Stats
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.TotalQueries == 0 {
		t.Fatalf("stats = %+v", st)
	}

	resp, err = http.Get(ts.URL + "/templates")
	if err != nil {
		t.Fatal(err)
	}
	var templates []qb5000.TemplateInfo
	json.NewDecoder(resp.Body).Decode(&templates)
	resp.Body.Close()
	if len(templates) != 1 || !strings.Contains(templates[0].SQL, "?") {
		t.Fatalf("templates = %+v", templates)
	}
}

// TestStatsAdmissionSection checks that /stats now carries both gates'
// counters alongside the catalog statistics, and that the embedded catalog
// fields still decode under their original names for existing clients.
func TestStatsAdmissionSection(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/observe", "text/plain", strings.NewReader(traceBody()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.TotalQueries == 0 {
		t.Fatalf("embedded catalog stats lost: %+v", st)
	}
	if st.Admission.Observe.Admitted != 1 || st.Admission.Observe.Shed != 0 {
		t.Fatalf("observe admission stats = %+v", st.Admission.Observe)
	}
	if st.Admission.Observe.MaxInflight != 0 {
		t.Fatalf("unlimited gate reports MaxInflight %d", st.Admission.Observe.MaxInflight)
	}
}

// TestObserveBodyLimit checks the /observe body cap: a shipment larger than
// MaxBodyBytes is cut off mid-stream and answered with 413, while one under
// the cap ingests normally.
func TestObserveBodyLimit(t *testing.T) {
	ts, _ := newTestServerWithConfig(t, Config{MaxBodyBytes: 256})

	line := "2018-05-01T00:00:00Z\tSELECT a FROM t WHERE x = 1\n"
	big := strings.Repeat(line, 1+256/len(line))
	resp, err := http.Post(ts.URL+"/observe", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body status %d, want 413", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/observe", "text/plain", strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	var obs ObserveResult
	json.NewDecoder(resp.Body).Decode(&obs)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || obs.Ingested != 1 {
		t.Fatalf("small body status %d, observe %+v", resp.StatusCode, obs)
	}
}

// gatedReader is a request body that parks the handler inside its permit:
// every Read blocks until release is closed.
type gatedReader struct {
	release chan struct{}
	data    *strings.Reader
}

func (g *gatedReader) Read(p []byte) (int, error) {
	<-g.release
	return g.data.Read(p)
}

// TestAdmissionSaturation drives a 1-permit /observe gate to saturation: one
// request parks inside the permit while GOMAXPROCS concurrent ingesters all
// shed with 429 + Retry-After. The accounting must be exact — every request
// either admitted or shed, inflight drains to zero — and the shed requests
// must never reach the catalog.
func TestAdmissionSaturation(t *testing.T) {
	ts, s := newTestServerWithConfig(t, Config{MaxInflight: 1})

	holder := &gatedReader{
		release: make(chan struct{}),
		data:    strings.NewReader("2018-05-01T00:00:00Z\tSELECT a FROM t\n"),
	}
	holderCode := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/observe", "text/plain", holder)
		if err != nil {
			holderCode <- -1
			return
		}
		resp.Body.Close()
		holderCode <- resp.StatusCode
	}()
	// The client transport starts reading the body before the handler is
	// known to have run, so the gate itself says when the permit is held
	// (the handler then parks in Read until released).
	for deadline := time.Now().Add(10 * time.Second); s.observeGate.Stats().Inflight != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the holder never took the permit: gate stats %+v", s.observeGate.Stats())
		}
	}

	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	codes := make([]int, workers)
	retryAfter := make([]string, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/observe", "text/plain",
				strings.NewReader("2018-05-01T01:00:00Z\tSELECT b FROM u\n"))
			if err != nil {
				codes[i] = -1
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusTooManyRequests {
			t.Errorf("ingester %d status %d, want 429", i, code)
		}
		if retryAfter[i] == "" {
			t.Errorf("ingester %d shed without a Retry-After hint", i)
		}
	}

	close(holder.release)
	if code := <-holderCode; code != http.StatusOK {
		t.Fatalf("admitted request status %d, want 200", code)
	}

	st := s.observeGate.Stats()
	if st.Admitted != 1 || st.Shed != int64(workers) {
		t.Fatalf("gate stats = %+v, want 1 admitted / %d shed", st, workers)
	}
	if st.Inflight != 0 {
		t.Fatalf("gate still reports %d inflight after drain", st.Inflight)
	}
	// Shed requests were answered before a single body byte was parsed: only
	// the admitted request's one line reached the catalog.
	if got := s.f.Stats().TotalQueries; got != 1 {
		t.Fatalf("catalog saw %d queries, want 1 (shed traffic must not ingest)", got)
	}
}

// forecastShed reads admission.forecast.shed from /stats.
func forecastShed(t *testing.T, url string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Admission.Forecast.Shed
}

// TestForecastAdmission holds the only /forecast permit of a MaxInflight: 1
// gate: a poll must shed with 429 + Retry-After and count exactly one more
// admission.forecast.shed. With the permit back, the same poll is admitted
// (409 here: no model is trained yet) and sheds nothing.
func TestForecastAdmission(t *testing.T) {
	ts, s := newTestServerWithConfig(t, Config{MaxInflight: 1})
	poll := func() *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + "/forecast?horizon=1h")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if err := s.forecastGate.TryAcquire(1); err != nil {
		t.Fatalf("taking the only permit: %v", err)
	}
	before := forecastShed(t, ts.URL)
	resp := poll()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("poll with the permit held: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("poll with the permit held shed without a Retry-After hint")
	}
	if got := forecastShed(t, ts.URL) - before; got != 1 {
		t.Errorf("admission.forecast.shed grew by %d, want 1", got)
	}

	s.forecastGate.Release(1)
	before = forecastShed(t, ts.URL)
	if resp := poll(); resp.StatusCode != http.StatusConflict {
		t.Errorf("poll with the permit free: status %d, want 409 (admitted, nothing trained)", resp.StatusCode)
	}
	if got := forecastShed(t, ts.URL) - before; got != 0 {
		t.Errorf("an admitted poll grew admission.forecast.shed by %d", got)
	}
	if st := s.forecastGate.Stats(); st.Inflight != 0 {
		t.Errorf("forecast gate reports %d inflight after drain", st.Inflight)
	}
}
