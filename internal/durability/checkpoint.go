package durability

import "sync"

// Checkpoint captures full system state at a WAL position. State is an
// opaque snapshot owned by the multistore package (design, view metadata,
// budgets, sliding workload window, TTI accounting); durability only needs
// the LSN to know where replay resumes. In a real deployment State would be
// a serialized byte image — here it is an in-memory snapshot with the same
// recovery semantics, sharing with the live system only what nothing writes
// after it is built, without a logical-plan serializer.
type Checkpoint struct {
	// LSN is the WAL byte offset at checkpoint time: every record at or
	// past it post-dates the checkpoint and must be replayed.
	LSN int
	// Seq is the workload sequence number at checkpoint time.
	Seq int
	// State is the multistore-owned snapshot.
	State any
}

// Manager owns one system's WAL and its checkpoint cadence: a checkpoint
// is taken every Every completed operations (queries, reorgs, updates).
type Manager struct {
	mu      sync.Mutex
	wal     *WAL
	every   int
	sinceCk int
	latest  *Checkpoint
	taken   int
}

// NewManager creates a durability manager checkpointing every `every`
// operations (minimum 1).
func NewManager(every int, wal *WAL) *Manager {
	if every < 1 {
		every = 1
	}
	return &Manager{wal: wal, every: every}
}

// WAL returns the write-ahead log.
func (m *Manager) WAL() *WAL { return m.wal }

// Every returns the checkpoint cadence.
func (m *Manager) Every() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.every
}

// Latest returns the most recent checkpoint, or nil before the first.
func (m *Manager) Latest() *Checkpoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.latest
}

// Checkpoints returns how many checkpoints have been taken.
func (m *Manager) Checkpoints() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.taken
}

// Checkpoint installs a new checkpoint of the given state at the current
// end of the WAL, truncates the WAL there and resets the cadence counter.
// Recovery replays from the latest checkpoint; an older one cannot be
// replayed once a newer one is taken.
func (m *Manager) Checkpoint(seq int, state any) *Checkpoint {
	ck := &Checkpoint{LSN: m.wal.truncate(), Seq: seq, State: state}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.latest = ck
	m.taken++
	m.sinceCk = 0
	return ck
}

// MaybeCheckpoint counts one completed operation and, when the cadence is
// due, takes a checkpoint of state(). The snapshot closure runs only when
// a checkpoint is actually due, so off-cadence operations pay nothing.
func (m *Manager) MaybeCheckpoint(seq int, state func() any) *Checkpoint {
	m.mu.Lock()
	m.sinceCk++
	due := m.sinceCk >= m.every
	m.mu.Unlock()
	if !due {
		return nil
	}
	return m.Checkpoint(seq, state())
}

// RecoveryReport summarizes one Recover run.
type RecoveryReport struct {
	// ReplayedRecords is how many WAL records were applied over the
	// checkpoint.
	ReplayedRecords int
	// TornBytes is the size of the unreadable WAL tail that was discarded.
	TornBytes int
	// RolledBackReorgs counts in-flight reorganizations (begin without
	// commit) discarded by recovery.
	RolledBackReorgs int
	// RolledBackTransfers counts in-flight transfers rolled back, and
	// RefundedTransferBytes the temp-space budget returned.
	RolledBackTransfers   int
	RefundedTransferBytes int64
	// Quarantined names every view removed from the recovered design.
	Quarantined []string
	// CorruptViews counts the quarantined views whose payload failed its
	// checksum.
	CorruptViews int
	// RestoredViews is how many views survived into the recovered design.
	RestoredViews int
	// ReplayedQueries is how many QueryDone records rebuilt window entries.
	ReplayedQueries int
	// Seconds is the simulated recovery time charged to RECOVERY TTI:
	// replay work plus the integrity scan over restored view bytes.
	Seconds float64
}
