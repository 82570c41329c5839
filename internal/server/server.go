// Package server exposes a Forecaster over HTTP — the paper's "external
// controller" deployment (§3): the target DBMS (or a log shipper) forwards
// executed queries to the framework, which runs on separate hardware, and
// the planning module polls it for forecasts.
//
// Endpoints:
//
//	POST /observe    trace lines (timestamp<TAB>[count<TAB>]SQL, see
//	                 internal/tracefile); returns counts ingested/rejected
//	POST /maintain   force a re-cluster + retrain at the latest observed time
//	GET  /forecast   ?horizon=1h → JSON cluster forecasts
//	GET  /stats      JSON reduction statistics
//	GET  /templates  JSON template catalog
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"encoding/json"

	"qb5000"
	"qb5000/internal/admission"
)

// ErrNoObservations is returned by Maintain while the forecaster is empty:
// nothing observed and nothing restored, so there is no clock to maintain
// against yet.
var ErrNoObservations = errors.New("server: no observations yet")

// DefaultMaxBodyBytes bounds an /observe request body when Config leaves
// MaxBodyBytes zero: large enough for any realistic trace shipment, finite
// so a runaway client cannot stream forever.
const DefaultMaxBodyBytes int64 = 1 << 30

// Config tunes the serving-tier backpressure (DESIGN.md §9). The zero value
// admits everything, bounding only the request body.
type Config struct {
	// MaxInflight caps concurrently admitted /observe and /forecast
	// requests, each endpoint on its own gate (0 = unlimited).
	MaxInflight int64
	// ObserveRate smooths sustained /observe admissions to this many
	// requests per second via a token bucket (0 = unlimited).
	ObserveRate float64
	// MaxBodyBytes caps one /observe request body (0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
}

// Server wraps a Forecaster with HTTP handlers. The Forecaster is itself
// safe for concurrent use (ingest goes to the sharded catalog's stripe
// locks, maintenance publishes copy-on-write epochs), so the handlers call
// it directly and the server holds no state or lock of its own: Maintain's
// clock is the controller's. The two admission gates shed overload before it
// reaches the catalog: a rejected request costs one atomic counter bump,
// never a parse.
type Server struct {
	f *qb5000.Forecaster

	observeGate  *admission.Gate
	forecastGate *admission.Gate
	maxBody      int64
}

// New wraps an existing Forecaster with unlimited admission.
func New(f *qb5000.Forecaster) *Server {
	return NewWithConfig(f, Config{})
}

// NewWithConfig wraps a Forecaster with the given backpressure limits.
func NewWithConfig(f *qb5000.Forecaster, c Config) *Server {
	maxBody := c.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	return &Server{
		f:            f,
		observeGate:  admission.New(admission.Options{MaxInflight: c.MaxInflight, Rate: c.ObserveRate}),
		forecastGate: admission.New(admission.Options{MaxInflight: c.MaxInflight}),
		maxBody:      maxBody,
	}
}

// shed answers a rejected request: 429 with a Retry-After hint sized to the
// gate's refill, so well-behaved clients back off instead of hammering.
func (s *Server) shed(w http.ResponseWriter, g *admission.Gate, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(g.RetryAfterSeconds()))
	http.Error(w, err.Error(), http.StatusTooManyRequests)
}

// Handler returns the HTTP routing for the server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/observe", s.handleObserve)
	mux.HandleFunc("/maintain", s.handleMaintain)
	mux.HandleFunc("/forecast", s.handleForecast)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/templates", s.handleTemplates)
	return mux
}

// Maintain re-clusters and retrains at the newest observed timestamp — the
// controller's ingest clock, which a restored snapshot also advances. The
// daemon's background loop and the /maintain endpoint both route through
// here; cancelling ctx (daemon shutdown, client disconnect) aborts the
// retrain at the next worker-pool boundary.
func (s *Server) Maintain(ctx context.Context) error {
	now := s.f.Controller().LastSeen()
	if now.IsZero() {
		return ErrNoObservations
	}
	return s.f.Maintain(ctx, now)
}

// ObserveResult reports one /observe call's outcome.
type ObserveResult struct {
	Ingested int64 `json:"ingested"`
	Rejected int64 `json:"rejected"`
}

// readErrRecorder remembers the last non-EOF error the underlying reader
// produced. When MaxBytesReader cuts a body off mid-line, the trace scanner
// reports the truncated line as a parse error and the limit error would be
// lost; the recorder keeps it so the handler can answer 413 instead of 400.
type readErrRecorder struct {
	r   io.Reader
	err error
}

func (rec *readErrRecorder) Read(p []byte) (int, error) {
	n, err := rec.r.Read(p)
	if err != nil && err != io.EOF {
		rec.err = err
	}
	return n, err
}

// handleObserve streams trace lines into the catalog. Admission first: a
// shed request is answered before a single body byte is read or parsed.
//
// qb5000:serving
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if err := s.observeGate.TryAcquire(1); err != nil {
		s.shed(w, s.observeGate, err)
		return
	}
	defer s.observeGate.Release(1)
	body := &readErrRecorder{r: http.MaxBytesReader(w, r.Body, s.maxBody)}
	// Entries before a mid-stream format error have already folded.
	res, err := s.f.ObserveTrace(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) || errors.As(body.err, &tooLarge) {
			http.Error(w, tooLarge.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, ObserveResult(res))
}

func (s *Server) handleMaintain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if err := s.Maintain(r.Context()); err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, ErrNoObservations) {
			code = http.StatusConflict
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeJSON(w, s.f.Stats())
}

// handleForecast serves predictions from the published epoch; admission
// keeps a poll storm from starving /observe of handler goroutines.
//
// qb5000:serving
func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	if aerr := s.forecastGate.TryAcquire(1); aerr != nil {
		s.shed(w, s.forecastGate, aerr)
		return
	}
	defer s.forecastGate.Release(1)
	horizon, err := time.ParseDuration(r.URL.Query().Get("horizon"))
	if err != nil {
		http.Error(w, fmt.Sprintf("bad horizon: %v", err), http.StatusBadRequest)
		return
	}
	preds, err := s.f.Forecast(horizon)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, preds)
}

// AdmissionStats reports both gates' counters in the /stats payload.
type AdmissionStats struct {
	Observe  admission.Stats `json:"observe"`
	Forecast admission.Stats `json:"forecast"`
}

// StatsResponse is the /stats payload: the catalog's reduction statistics
// (embedded, so existing clients keep their field names) plus the admission
// counters.
type StatsResponse struct {
	qb5000.Stats
	Admission AdmissionStats `json:"admission"`
}

// qb5000:serving
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, StatsResponse{
		Stats: s.f.Stats(),
		Admission: AdmissionStats{
			Observe:  s.observeGate.Stats(),
			Forecast: s.forecastGate.Stats(),
		},
	})
}

// qb5000:serving
func (s *Server) handleTemplates(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, s.f.Templates())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already written; nothing more to do.
		return
	}
}
