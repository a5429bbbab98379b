package aquila

import (
	"runtime"
	"time"

	"aquila/internal/parallel"
	"aquila/internal/serve"
)

// ErrOverloaded reports that the serving layer shed a request: every kernel
// slot was busy and the admission queue was full. It is the internal gate's
// sentinel re-exported so callers can classify shed load with errors.Is —
// the CLI renders it as an explicit "overloaded, retry" notice and the HTTP
// front-end maps it to 429 Too Many Requests with a Retry-After hint.
var ErrOverloaded = serve.ErrOverloaded

// ServerConfig tunes a Server. The zero value gives sensible defaults.
type ServerConfig struct {
	// MaxInFlight bounds concurrently executing kernels. Each kernel already
	// parallelizes internally across Options.Threads workers, so the default
	// is GOMAXPROCS divided by the per-kernel thread count (at least 1):
	// enough slots to fill the machine without oversubscribing it.
	MaxInFlight int
	// MaxQueue bounds the FIFO overflow queue behind the kernel slots;
	// requests beyond it fail fast with serve.ErrOverloaded. 0 means
	// 4*MaxInFlight; negative means no queue (shed immediately).
	MaxQueue int
	// DefaultTimeout is applied to queries whose context carries no deadline.
	// 0 means no default timeout.
	DefaultTimeout time.Duration
	// DisableSingleflight makes every query run its own compute instead of
	// coalescing with concurrent identical ones — the ablation knob for
	// measuring what request dedup buys under a query storm.
	DisableSingleflight bool
}

// Server is the concurrent query-serving layer over an Engine (the paper's
// §7 deployment setting: a stream of connectivity queries racing a stream of
// edge updates). Queries run on the engine's snapshots (Acquire); the server
// adds three things to them:
//
//   - Eager epochs: every batch publishes the next snapshot inside the
//     apply, with one atomic pointer swap, so reads never block writes,
//     writes never block reads, and no reader ever observes a torn state.
//   - Admission control: kernel executions occupy bounded slots with a FIFO
//     overflow queue, so a query storm degrades into queueing + ErrOverloaded
//     instead of unbounded thread oversubscription. Queries through the
//     Engine's own methods bypass it.
//   - A default timeout for queries whose context has no deadline, and
//     singleflight telemetry (SingleflightStats).
//
// Batches may go through Server.Apply or straight to the Engine: both
// publish.
type Server struct {
	eng  *Engine
	cfg  ServerConfig
	gate *serve.Gate
	// sfStats aggregates hit/miss telemetry from every snapshot's result
	// cells, across all epochs (see SingleflightStats).
	sfStats serve.CellStats
}

// NewServer wraps e in a serving layer and publishes epoch 0.
func NewServer(e *Engine, cfg ServerConfig) *Server {
	if cfg.MaxInFlight <= 0 {
		per := parallel.Threads(e.opt.Threads)
		cfg.MaxInFlight = max(1, runtime.GOMAXPROCS(0)/per)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	} else if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	s := &Server{eng: e, cfg: cfg, gate: serve.NewGate(cfg.MaxInFlight, cfg.MaxQueue)}
	e.attach(s)
	return s
}

// Apply inserts a batch of edges (Engine.Apply semantics) and publishes the
// next epoch. Readers holding older snapshots are unaffected; new Acquire
// calls see the new epoch immediately.
func (s *Server) Apply(batch []Edge) (*ApplyResult, error) { return s.eng.Apply(batch) }

// ApplyUpdates applies a mixed insert/delete batch (Engine.ApplyUpdates
// semantics, including the transparent promotion to the dynamic forest on
// the first delete) and publishes the next epoch. Readers holding older
// snapshots still see the pre-delete graph — epoch pinning gives deletion
// exactly the same isolation inserts have always had.
func (s *Server) ApplyUpdates(batch []Update) (*ApplyResult, error) { return s.eng.ApplyUpdates(batch) }

// Acquire pins the current snapshot. The snapshot stays valid (and its
// cached decompositions stay warm) for as long as the caller holds it, no
// matter how many epochs are published meanwhile; dropping the reference
// releases it to the garbage collector. There is no explicit unpin.
func (s *Server) Acquire() *Snapshot { return s.eng.Acquire() }

// Epoch returns the currently published epoch (0 before the first Apply).
func (s *Server) Epoch() uint64 { return s.Acquire().Epoch() }

// SingleflightStats returns the cumulative hit and miss counts of the
// snapshots' singleflight result cells, across every epoch this server has
// published. A hit is a query answered from a cached (or in-flight) result;
// a miss is one that had to start its own kernel pass. The ratio is the
// dedup win a front-end reports as its singleflight hit rate.
func (s *Server) SingleflightStats() (hits, misses uint64) {
	return s.sfStats.Counts()
}
