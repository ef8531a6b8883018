package telemetry

import (
	"errors"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"prospector/internal/ledger"
	"prospector/internal/obs"
	"prospector/internal/regress"
)

// sessionWindow is how many ticks each windowed series retains;
// flightCapacity bounds the flight recorder's record ring. Both are
// sized for a default run (tens of epochs or figures, a few hundred
// spans per epoch) with headroom for -listen interval sampling.
const (
	sessionWindow  = 256
	flightCapacity = 4096
)

// Flags carries a command's observability flag values into Start. The
// zero value turns every surface off, so instrumented code runs at its
// no-op cost.
type Flags struct {
	// Metrics: "" disables; "-" prints the Prometheus exposition to
	// stdout at Close; any other value names a file to write it to.
	Metrics string
	// Trace: "" disables; "-" streams JSON-lines to stdout; any other
	// value names a file receiving them as the run progresses.
	Trace string
	// Pprof: "" disables; a value containing ":" serves net/http/pprof
	// at that address until Close; any other value names a directory
	// receiving cpu.prof (covering the run) and heap.prof (at Close).
	Pprof string
	// Manifest names the run manifest Finish writes ("-" for stdout).
	Manifest string
	// Listen is the address Serve mounts /metrics and the caller's
	// endpoints on.
	Listen string
	// Flight names the flight-recorder dump; FlightRules the JSON rule
	// file judged against the live windowed series. DefaultRules arm
	// the recorder when Flight is set without FlightRules.
	Flight       string
	FlightRules  string
	DefaultRules []regress.Rule
	// Hold keeps the Serve endpoints up this long after a successful
	// run.
	Hold time.Duration
	// AlwaysRegistry gives the run a registry even when no flag asks
	// for one (the caller reads it itself).
	AlwaysRegistry bool
}

// Session is one command run's observability: the metrics registry,
// the tracer, live telemetry (collector, flight recorder, rules), the
// -listen server, profiling, and the run manifest. Start opens it,
// Finish ends it.
type Session struct {
	command   string
	flags     Flags
	startUnix int64
	startWall time.Time

	reg    *obs.Registry
	tracer *obs.Tracer
	mon    *Monitor

	metricsFile *os.File
	traceFile   *os.File
	cpuFile     *os.File
	pprofDir    string
	stopServe   func() error
	stopTicker  func()
	stopPprof   func() error
	pprofDone   chan struct{} // closed when the pprof server goroutine exits
	closed      bool
}

// Start opens the surfaces f enables for command. A registry exists
// whenever a consumer of one is enabled (-metrics, -manifest, -listen,
// -flight, -flight-rules) or f.AlwaysRegistry is set; nil otherwise.
// With a registry, a Monitor windows its series and, under -flight,
// taps the tracer (creating one if -trace is off) so a rule breach can
// dump the recent records. Files open eagerly, so a bad path fails the
// run up front rather than after it has completed.
func Start(command string, f Flags) (*Session, error) {
	s := &Session{command: command, flags: f, startUnix: time.Now().Unix(), startWall: time.Now()}
	if err := s.open(); err != nil {
		_ = s.Close() // the original error wins
		return nil, err
	}
	return s, nil
}

func (s *Session) open() error {
	f := s.flags
	if f.Metrics != "" && f.Metrics != "-" {
		mf, err := os.Create(f.Metrics)
		if err != nil {
			return fmt.Errorf("telemetry: metrics file: %w", err)
		}
		s.metricsFile = mf
	}
	switch f.Trace {
	case "":
	case "-":
		s.tracer = obs.NewTracer(os.Stdout)
	default:
		tf, err := os.Create(f.Trace)
		if err != nil {
			return fmt.Errorf("telemetry: trace file: %w", err)
		}
		s.traceFile = tf
		// Buffered: file traces are hot-path output; Close flushes.
		s.tracer = obs.NewBufferedTracer(tf)
	}
	if err := s.startPprof(f.Pprof); err != nil {
		return err
	}
	if !f.AlwaysRegistry && f.Metrics == "" && f.Manifest == "" && f.Listen == "" &&
		f.Flight == "" && f.FlightRules == "" {
		return nil
	}
	s.reg = obs.NewRegistry()
	var fl *Flight
	if f.Flight != "" {
		fl = NewFlight(flightCapacity)
		if s.tracer == nil {
			s.tracer = obs.NewTracer(fl)
		} else {
			s.tracer.Tee(fl)
		}
	}
	rules := f.DefaultRules
	if f.FlightRules != "" {
		var err error
		if rules, err = LoadRules(f.FlightRules); err != nil {
			return err
		}
	}
	s.mon = NewMonitor(NewCollector(s.reg, sessionWindow), fl, rules, f.Flight)
	return nil
}

func (s *Session) startPprof(arg string) error {
	if arg == "" {
		return nil
	}
	if strings.Contains(arg, ":") {
		// A stoppable server rather than http.ListenAndServe: the
		// goroutine ends when Close shuts the endpoint down.
		srv := &http.Server{Addr: arg}
		s.stopPprof = srv.Close
		done := make(chan struct{})
		s.pprofDone = done
		go func() {
			// An unusable address only costs the profiling endpoint.
			// Closing done lets Close join the goroutine, so a
			// Close-before-serve race cannot leak it.
			defer close(done)
			_ = srv.ListenAndServe()
		}()
		return nil
	}
	if err := os.MkdirAll(arg, 0o755); err != nil {
		return fmt.Errorf("telemetry: pprof dir: %w", err)
	}
	f, err := os.Create(filepath.Join(arg, "cpu.prof"))
	if err != nil {
		return fmt.Errorf("telemetry: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // the original error wins
		return fmt.Errorf("telemetry: cpu profile: %w", err)
	}
	s.cpuFile = f
	s.pprofDir = arg
	return nil
}

// Registry returns the run's registry, nil when no surface needs one.
func (s *Session) Registry() *obs.Registry { return s.reg }

// Tracer returns the run's tracer, nil when neither -trace nor -flight
// is on.
func (s *Session) Tracer() *obs.Tracer { return s.tracer }

// Monitor returns the live-telemetry monitor, nil without a registry.
// Callers tick it from their epoch or figure loops.
func (s *Session) Monitor() *Monitor { return s.mon }

// Serve mounts /metrics and the given endpoints (telemetry.Endpoints
// for a one-shot run, the serving tier's for a plan service) on
// -listen and starts the one-second ticker that keeps the windows and
// the go.* runtime gauges moving between the caller's own ticks. It
// returns the bound address, "" when -listen is off.
func (s *Session) Serve(endpoints ...obs.Endpoint) (string, error) {
	if s.flags.Listen == "" {
		return "", nil
	}
	bound, stop, err := obs.Serve(s.flags.Listen, s.reg, endpoints...)
	if err != nil {
		return "", err
	}
	s.stopServe = stop
	s.stopTicker = StartTicker(s.mon, NewRuntimeBridge(s.reg), time.Second)
	return bound, nil
}

// Close stops the ticker and flushes everything the flags enabled: the
// metrics exposition, the trace, the CPU profile, and a final heap
// profile; it stops the -listen and pprof servers and waits for their
// goroutines. It attempts every step, returns their errors joined, and
// is idempotent: later calls are no-ops.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var errs []error
	keep := func(err error) { errs = append(errs, err) }
	if s.stopTicker != nil {
		s.stopTicker()
	}
	if s.flags.Metrics == "-" {
		keep(s.reg.Snapshot().WritePrometheus(os.Stdout))
	} else if s.metricsFile != nil {
		keep(s.reg.Snapshot().WritePrometheus(s.metricsFile))
		keep(s.metricsFile.Close())
	}
	if s.tracer != nil {
		// Flush drains the buffer (if any) and reports the first error
		// the tracer saw, so this covers Err too.
		keep(s.tracer.Flush())
	}
	if s.stopServe != nil {
		keep(s.stopServe())
	}
	if s.stopPprof != nil {
		keep(s.stopPprof())
		<-s.pprofDone
	}
	if s.traceFile != nil {
		keep(s.traceFile.Close())
	}
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(s.cpuFile.Close())
	}
	if s.pprofDir != "" {
		f, err := os.Create(filepath.Join(s.pprofDir, "heap.prof"))
		if err != nil {
			keep(fmt.Errorf("telemetry: heap profile: %w", err))
		} else {
			runtime.GC() // materialize up-to-date allocation stats
			keep(pprof.WriteHeapProfile(f))
			keep(f.Close())
		}
	}
	return errors.Join(errs...)
}

// Finish ends the run. After a successful run (runErr nil) it first
// holds the Serve endpoints for -hold. It then closes the session,
// which flushes the tracer so the trace file parses whole, and, again
// only on success, writes the -manifest: the command, args, the final
// registry snapshot, the trace file's aggregates, and an environment
// block whose wall seconds are wall (nil: {"run": seconds since
// Start}). The result joins runErr with any close or manifest error.
func (s *Session) Finish(runErr error, args map[string]string, wall map[string]float64) error {
	if runErr == nil && s.stopServe != nil && s.flags.Hold > 0 {
		_, _ = fmt.Printf("holding endpoints for %s\n", s.flags.Hold)
		time.Sleep(s.flags.Hold)
	}
	cerr := s.Close()
	if runErr != nil || s.flags.Manifest == "" {
		return errors.Join(runErr, cerr)
	}
	if wall == nil {
		wall = map[string]float64{"run": time.Since(s.startWall).Seconds()}
	}
	env := ledger.HostEnvironment(s.startUnix)
	env.WallSeconds = wall
	m := ledger.New(s.command, args, s.reg.Snapshot(), env)
	if s.flags.Trace != "" && s.flags.Trace != "-" {
		if err := m.AttachTraceFile(s.flags.Trace); err != nil {
			return errors.Join(cerr, err)
		}
	}
	return errors.Join(cerr, ledger.WriteFile(s.flags.Manifest, m))
}
