// Command attackd serves the targeted-attack analytics over HTTP: a
// long-lived process that answers single-cell analyses and whole
// parameter-grid sweeps from one warm state, with an LRU result cache
// and singleflight deduplication in front of the evaluator.
//
// Usage:
//
//	attackd [-addr :8080] [-workers 0] [-solver bicgstab|ilu|dense|auto]
//	        [-tol 1e-12] [-cache 4096] [-maxcells 4096] [-maxstates 200000]
//	        [-maxsojourns 1024] [-maxsimcells 256] [-maxsimevents 16777216]
//	        [-maxjobs 64] [-jobttl 15m] [-shutdown-timeout 10s]
//	        [-log-level info] [-log-format text|json] [-slowreq 1s]
//	        [-debug-addr 127.0.0.1:6060]
//
// Endpoints:
//
//	POST /v1/analyze  one cell: {"c":7,"delta":7,"k":1,"mu":0.2,"d":0.9,"nu":0.1}
//	POST /v1/sweep    a grid:   {"c":"7","delta":"7","k":"1","mu":"0.2",
//	                             "d":"0.5:0.9:0.1","nu":"0.05,0.1"}
//	POST /v1/simsweep a simulation grid: {"strategies":"paper,passive",
//	                             "mu":"0.1,0.2","sizes":"2000","events":2000,
//	                             "replicas":2,"seed":7}
//	POST /v1/jobs     async submit: any sweep/simsweep body plus
//	                  {"kind":"sweep"|"simsweep"} → 202 with a job ID
//	GET  /v1/jobs     list known jobs
//	GET  /v1/jobs/{id}         poll state and cells done/total
//	GET  /v1/jobs/{id}/result  fetch (or ?stream=1) a finished result
//	DELETE /v1/jobs/{id}       cancel the evaluation
//	GET  /healthz     liveness
//	GET  /metrics     Prometheus text: requests, cache hit rate, in-flight,
//	                  solver iterations and sparse-to-dense fallbacks,
//	                  simulation evaluations and simulated events, streamed
//	                  cells and job states
//
// The grid endpoints stream NDJSON — one cell per line as it is
// computed, then a {"summary":{...}} line — when the request carries
// `Accept: application/x-ndjson` or `?stream=1`.
//
// POST bodies accept optional "solver", "tol", "max_iter" and
// "workers" fields overriding the server's defaults for that request.
// Sweep evaluations warm-start neighboring grid cells' iterative
// solves; the response reports the iterations spent.
//
// Axis expressions accept comma lists ("0.1,0.2") and inclusive
// lo:hi:step ranges ("0.5:0.9:0.1"). SIGINT/SIGTERM drain in-flight
// requests and running jobs for up to -shutdown-timeout before the
// process exits.
//
// Observability: every request is traced (W3C traceparent in and out;
// opt into a per-stage timing breakdown with "timings": true in any
// analysis or sweep body), /metrics carries request- and stage-latency
// histograms plus Go runtime gauges, requests slower than -slowreq log
// their span tree at warn level, and -debug-addr exposes net/http/pprof
// and /debug/vars on a second, private listener.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"targetedattacks/internal/attackd"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/matrix"
	"targetedattacks/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "attackd:", err)
		os.Exit(1)
	}
}

// run parses flags, serves until ctx is cancelled, then drains
// gracefully. When ready is non-nil the bound address is sent to it
// once the listener accepts connections (the smoke tests use this with
// -addr 127.0.0.1:0).
func run(ctx context.Context, args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("attackd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		workers     = fs.Int("workers", 0, "evaluation pool width (0 = one per CPU)")
		solver      = fs.String("solver", "", "linear-solver backend: "+strings.Join(matrix.SolverKinds(), ", ")+" (default bicgstab)")
		tol         = fs.Float64("tol", 0, "iterative solver residual tolerance (0 = default)")
		cacheSize   = fs.Int("cache", attackd.DefaultCacheSize, "LRU result-cache entries (negative disables)")
		maxCells    = fs.Int("maxcells", attackd.DefaultMaxCells, "maximum grid cells per sweep request (at most 16384)")
		maxStates   = fs.Int("maxstates", attackd.DefaultMaxStates, "maximum |Ω| per cell")
		maxSojourns = fs.Int("maxsojourns", attackd.DefaultMaxSojourns, "maximum sojourn expectations per request")
		maxSimCells = fs.Int("maxsimcells", attackd.DefaultMaxSimCells, "maximum grid cells per simulation-sweep request")
		maxSimEvts  = fs.Int64("maxsimevents", attackd.DefaultMaxSimEventBudget, "maximum cells×replicas×events per simulation-sweep request")
		maxJobs     = fs.Int("maxjobs", attackd.DefaultMaxJobs, "maximum async jobs held in memory (negative disables the job API)")
		jobTTL      = fs.Duration("jobttl", attackd.DefaultJobTTL, "how long finished jobs stay pollable")
		drain       = fs.Duration("shutdown-timeout", 10*time.Second, "graceful-shutdown drain budget")
		logLevel    = fs.String("log-level", "info", "log verbosity: debug, info, warn, error")
		logFormat   = fs.String("log-format", "text", "log encoding: text or json")
		slowReq     = fs.Duration("slowreq", attackd.DefaultSlowRequest, "log requests slower than this at warn level, with their span tree")
		debugAddr   = fs.String("debug-addr", "", "optional second listener for net/http/pprof and /debug/vars (keep it private)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		return err
	}
	srv, err := attackd.New(attackd.Config{
		Pool:              engine.New(*workers),
		Solver:            matrix.SolverConfig{Kind: *solver, Tol: *tol},
		CacheSize:         *cacheSize,
		MaxCells:          *maxCells,
		MaxStates:         *maxStates,
		MaxSojourns:       *maxSojourns,
		MaxSimCells:       *maxSimCells,
		MaxSimEventBudget: *maxSimEvts,
		MaxJobs:           *maxJobs,
		JobTTL:            *jobTTL,
		Logger:            logger,
		SlowRequest:       *slowReq,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer dln.Close()
		fmt.Fprintf(out, "attackd: debug listener (pprof, expvar) on %s\n", dln.Addr())
		go http.Serve(dln, debugMux()) //nolint:errcheck // dies with the process
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(out, "attackd: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(out, "attackd: draining for up to %s\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	// In-flight async jobs share the drain budget: they finish (and stay
	// pollable until the process exits) rather than dying mid-grid.
	if err := srv.DrainJobs(drainCtx); err != nil {
		return fmt.Errorf("draining jobs: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// debugMux wires the runtime-introspection handlers that the default
// ServeMux would have picked up had attackd used it: pprof profiles and
// the expvar JSON dump. They live on their own listener so profiling
// endpoints are never reachable through the public -addr.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}
