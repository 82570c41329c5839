// Command qb5000d runs QB5000 as an external controller daemon (paper §3):
// the target DBMS (or a log shipper) POSTs executed queries to /observe, a
// background loop periodically re-clusters and retrains, and the planning
// module GETs /forecast for predicted arrival rates.
//
// Usage:
//
//	qb5000d -addr :8500 -horizon 1h -model ENSEMBLE -maintain-every 1h
//
// Then:
//
//	printf '2018-01-02T15:04:05Z\tSELECT * FROM t WHERE id = 7\n' | \
//	    curl -s --data-binary @- localhost:8500/observe
//	curl -s -X POST localhost:8500/maintain
//	curl -s 'localhost:8500/forecast?horizon=1h'
//
// SIGINT/SIGTERM shut the daemon down cleanly: in-flight HTTP requests get a
// grace period and a retrain in progress is cancelled at the next worker-pool
// boundary instead of running to completion.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qb5000"
	"qb5000/internal/failpoint"
	"qb5000/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], nil)
	stop()
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		log.Fatal(err)
	}
}

// errUsage reports a command line the flag set rejected; the flag package
// has already printed the problem and the usage text.
var errUsage = errors.New("usage")

// run is the daemon: it parses args, serves on ln (or, when ln is nil, on a
// listener it opens on -addr) until ctx ends, then shuts the server down,
// waits for the maintain loop to stop and writes the -save snapshot. A
// serve error returns at once.
func run(ctx context.Context, args []string, ln net.Listener) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8500", "listen address")
		horizon     = fs.Duration("horizon", time.Hour, "prediction horizon to train")
		model       = fs.String("model", "HYBRID", "forecast model family")
		seed        = fs.Int64("seed", 1, "random seed")
		parallelism = fs.Int("parallelism", 0, "worker pool size for clustering/training (0 = all cores, 1 = sequential)")
		shards      = fs.Int("shards", 0, "catalog lock stripes, rounded up to a power of two (0 = all cores, 1 = reproducible sequential IDs)")
		fpcache     = fs.Int("fpcache", 0, "fingerprint-cache entries: repeated raw SQL skips parsing (0 = disabled)")
		maintain    = fs.Duration("maintain-every", 0, "periodic re-cluster + retrain cadence (0 disables the background loop)")
		maxInflight = fs.Int64("max-inflight", 0, "max concurrently admitted /observe and /forecast requests, each endpoint on its own gate; excess sheds with 429 (0 = unlimited)")
		observeRate = fs.Float64("observe-rate", 0, "sustained /observe admission rate per second, token-bucket smoothed (0 = unlimited)")
		loadPath    = fs.String("load", "", "restore the catalog from a snapshot at startup")
		// qb5000:durable
		savePath = fs.String("save", "", "write a catalog snapshot to this file on clean shutdown (atomic + fsync)")
		faults   = fs.String("failpoints", "", "arm fault-injection sites, e.g. fsx.rename=nth:1 (also "+failpoint.EnvVar+")")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	if *faults != "" {
		if err := failpoint.Parse(*faults); err != nil {
			return err
		}
	} else if err := failpoint.ParseEnv(); err != nil {
		return err
	}

	cfg := qb5000.Config{
		Model:       *model,
		Horizons:    []time.Duration{*horizon},
		Seed:        *seed,
		Parallelism: *parallelism,
		Shards:      *shards,

		FingerprintCacheSize: *fpcache,
	}
	var f *qb5000.Forecaster
	if *loadPath != "" {
		var lerr error
		f, lerr = qb5000.LoadFile(cfg, *loadPath)
		if lerr != nil {
			return lerr
		}
		log.Printf("restored %d templates from %s", f.Stats().Templates, *loadPath)
	} else {
		f = qb5000.New(cfg)
	}

	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", *addr); err != nil {
			return err
		}
	}
	srv := server.NewWithConfig(f, server.Config{
		MaxInflight: *maxInflight,
		ObserveRate: *observeRate,
	})
	httpSrv := &http.Server{
		Handler:     srv.Handler(),
		BaseContext: func(net.Listener) context.Context { return ctx },
		// Without read/write bounds every slow client parks a handler
		// goroutine for the life of the process (TestRunCutsOffSlowHeader).
		// /observe streams whole trace files and /maintain retrains
		// in-request, so the body limits are generous but finite.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      10 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	loopDone := make(chan struct{})
	if *maintain > 0 {
		go func() {
			defer close(loopDone)
			ticker := time.NewTicker(*maintain)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if err := srv.Maintain(ctx); err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, server.ErrNoObservations) {
						log.Printf("maintain: %v", err)
					}
				}
			}
		}()
	} else {
		close(loopDone)
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Printf("qb5000d listening on %s (model=%s, horizon=%v, parallelism=%d)\n", *addr, *model, *horizon, *parallelism)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	<-errc
	<-loopDone
	if *savePath != "" {
		if err := f.SaveFile(*savePath); err != nil {
			return fmt.Errorf("save snapshot: %w", err)
		}
		log.Printf("snapshot written to %s", *savePath)
	}
	return nil
}
