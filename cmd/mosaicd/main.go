// Command mosaicd is the MosaicSim-Go simulation daemon: a long-running,
// network-facing service that accepts simulation jobs over HTTP, runs them
// on a bounded worker pool through the shared session engine, streams live
// per-job events, and exposes Prometheus metrics. With -data-dir it is
// durable (jobs and artifacts survive restarts), and with -role it scales
// out: one coordinator owns the queue and a fleet of workers leases jobs
// from it.
//
// Usage:
//
//	mosaicd [-role standalone|coordinator|worker] [-addr :8374]
//	        [-workers N] [-queue N] [-job-timeout D] [-drain D]
//	        [-cache-entries N] [-max-jobs N] [-step-workers N]
//	        [-replay=true|false] [-data-dir DIR] [-tenant-quota N]
//	        [-max-attempts N] [-lease-ttl D] [-heartbeat D]
//	        [-coordinator URL] [-name NAME] [-slots N]
//
// Quickstart (standalone):
//
//	mosaicd -addr :8374 -data-dir /var/lib/mosaicd &
//	curl -s localhost:8374/v1/jobs -d '{"workload":"sgemm","scale":"tiny","tiles":2}'
//	curl -s localhost:8374/v1/jobs/j000001/events   # NDJSON live stream
//	curl -s localhost:8374/v1/jobs/j000001          # status + final report
//	curl -s localhost:8374/metrics                  # Prometheus text
//
// Quickstart (fleet): one coordinator, two workers, same API:
//
//	mosaicd -role coordinator -addr :8374 -data-dir /var/lib/mosaicd &
//	mosaicd -role worker -addr :8375 -coordinator http://127.0.0.1:8374 -name w1 &
//	mosaicd -role worker -addr :8376 -coordinator http://127.0.0.1:8374 -name w2 &
//	curl -s localhost:8374/v1/jobs -d '{"workload":"sgemm","scale":"tiny"}'
//
// Admission is bounded: when -queue jobs are already waiting, submissions
// are shed with 429 (Retry-After derived from the live backlog), and
// per-tenant quotas (-tenant-quota, tenant from the spec or the
// X-Mosaic-Tenant header) stop one client from monopolizing the fleet.
// SIGINT/SIGTERM drains gracefully: admission closes, queued jobs are
// cancelled, running and leased jobs get -drain to finish.
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
	"runtime"
	"syscall"
	"time"

	"mosaicsim/internal/cluster"
	"mosaicsim/internal/jobs"
	"mosaicsim/internal/server"
	"mosaicsim/internal/sim"
	"mosaicsim/internal/store"
)

func main() {
	os.Exit(run())
}

func run() int {
	role := flag.String("role", "standalone", "standalone (serve and execute), coordinator (serve, lease to a fleet), or worker (execute leases from -coordinator)")
	addr := flag.String("addr", ":8374", "listen address (host:port; :0 picks a free port)")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = all CPU cores)")
	queue := flag.Int("queue", 64, "admission queue depth; submissions beyond it shed with 429")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "per-job wall-clock cap (0 = none)")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown budget for running jobs")
	cacheEntries := flag.Int("cache-entries", 256, "artifact-cache entry cap per layer (0 = unbounded)")
	maxJobs := flag.Int("max-jobs", 4096, "retained job records; oldest terminal jobs are forgotten beyond it")
	stepWorkers := flag.Int("step-workers", 0, "default per-simulation tile-stepping goroutine budget for specs that leave step_workers unset, clamped to GOMAXPROCS and used only while faster than inline stepping (bit-identical results; 0/1 = sequential)")
	replay := flag.Bool("replay", true, "default for specs that leave replay unset: answer timing-only re-submissions from recorded schedules (bit-identical results)")
	dataDir := flag.String("data-dir", "", "durable state directory: jobs resume and artifacts persist across restarts (empty = in-memory only)")
	tenantQuota := flag.Int("tenant-quota", 0, "max live (queued+running) jobs per tenant (0 = unlimited)")
	maxAttempts := flag.Int("max-attempts", 0, "executions a job may consume across lost leases and restarts before failing (0 = default 3)")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "coordinator: lease lifetime without renewal; a silent worker's jobs requeue after this")
	heartbeat := flag.Duration("heartbeat", 0, "coordinator: worker heartbeat interval (0 = lease-ttl/3)")
	coordURL := flag.String("coordinator", "", "worker: coordinator base URL to lease jobs from")
	name := flag.String("name", "", "worker: fleet-unique name (default: hostname:pid)")
	slots := flag.Int("slots", 0, "worker: concurrent leased jobs (0 = the local worker count)")
	flag.Parse()

	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("mosaicd: ")

	cache := sim.NewCache()
	cache.SetMaxEntries(*cacheEntries)

	// The store is double duty: the jobs half (coordinator/standalone only
	// — workers mirror jobs that the coordinator already persists) and the
	// artifact half (every role: warm traces and schedules survive
	// restarts and prime the cache before the first job).
	var st *store.Store
	if *dataDir != "" {
		var err error
		if st, err = store.Open(*dataDir); err != nil {
			log.Print(err)
			return 1
		}
		defer st.Close()
		imported := 0
		if err := st.Artifacts(func(name string, data []byte) error {
			if err := cache.ImportArtifact(name, data); err != nil {
				log.Printf("artifact %s: %v (skipped)", name, err)
				return nil
			}
			imported++
			return nil
		}); err != nil {
			log.Print(err)
		}
		if imported > 0 {
			log.Printf("imported %d artifact blobs from %s", imported, *dataDir)
		}
	}

	opts := jobs.Options{
		Workers:     *workers,
		QueueDepth:  *queue,
		JobTimeout:  *jobTimeout,
		MaxJobs:     *maxJobs,
		Cache:       cache,
		StepWorkers: *stepWorkers,
		Replay:      *replay,
		TenantQuota: *tenantQuota,
		MaxAttempts: *maxAttempts,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch *role {
	case "standalone":
		opts.Store = st
	case "coordinator":
		opts.Store = st
		opts.Workers = -1 // every job executes on a leased worker
	case "worker":
		if *coordURL == "" {
			log.Print("-role worker requires -coordinator URL")
			return 1
		}
	default:
		log.Printf("unknown -role %q (want standalone, coordinator, or worker)", *role)
		return 1
	}

	mgr := jobs.NewManager(opts)
	api := server.New(mgr, nil)
	handler := http.Handler(api)
	var workerDone chan error
	if *role == "coordinator" {
		coord := cluster.NewCoordinator(mgr, cluster.CoordinatorOptions{
			LeaseTTL:  *leaseTTL,
			Heartbeat: *heartbeat,
		})
		go coord.Run(ctx)
		mux := http.NewServeMux()
		mux.Handle("/cluster/v1/", coord)
		mux.Handle("/", api)
		handler = mux
	}
	if *role == "worker" {
		wname := *name
		if wname == "" {
			host, _ := os.Hostname()
			wname = fmt.Sprintf("%s:%d", host, os.Getpid())
		}
		nslots := *slots
		if nslots <= 0 {
			if nslots = *workers; nslots <= 0 {
				nslots = runtime.NumCPU()
			}
		}
		w, err := cluster.NewWorker(cluster.WorkerOptions{
			Name:        wname,
			Coordinator: *coordURL,
			Manager:     mgr,
			Slots:       nslots,
		})
		if err != nil {
			log.Print(err)
			return 1
		}
		workerDone = make(chan error, 1)
		go func() { workerDone <- w.Run(ctx) }()
		log.Printf("worker %s leasing from %s (slots=%d)", wname, *coordURL, nslots)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Print(err)
		return 1
	}
	// Event streams outlive http.Server.Shutdown's handler wait unless
	// their requests observe the drain, so every request context descends
	// from baseCtx, which the drain path cancels after the manager stops.
	baseCtx, stopStreams := context.WithCancel(context.Background())
	defer stopStreams()
	srv := &http.Server{
		Handler:     handler,
		ReadTimeout: 30 * time.Second,
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("listening on %s (role=%s workers=%d queue=%d cache-entries=%d data-dir=%q)",
		ln.Addr(), *role, *workers, *queue, *cacheEntries, *dataDir)

	select {
	case err := <-errc:
		log.Print(err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way
	log.Printf("signal received; draining (budget %s)", *drain)

	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if workerDone != nil {
		// The lease loop stopped with ctx; wait for in-flight leased jobs
		// to complete back to the coordinator (bounded by the drain budget).
		select {
		case <-workerDone:
		case <-shutCtx.Done():
			log.Print("drain deadline hit waiting for leased jobs")
		}
	}
	if err := mgr.Shutdown(shutCtx); err != nil {
		log.Print(err)
	}
	// Persist warm artifacts so the next process starts with today's traces
	// and schedules instead of recomputing them.
	if st != nil {
		exported := 0
		if err := cache.ExportArtifacts(func(name string, data []byte) error {
			fresh, err := st.PutArtifact(name, data)
			if err != nil {
				return err
			}
			if fresh {
				exported++
			}
			return nil
		}); err != nil {
			log.Printf("artifact export: %v", err)
		} else if exported > 0 {
			log.Printf("exported %d new artifact blobs to %s", exported, *dataDir)
		}
	}
	stopStreams() // ends live event streams so Shutdown's handler wait returns
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Print(err)
		return 1
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Print(err)
		return 1
	}
	fmt.Println("mosaicd: drained cleanly")
	return 0
}
