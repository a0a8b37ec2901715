// The group-commit dispatcher: the single writer of the modification log.
// Concurrent producers enqueue modifications; the dispatcher goroutine —
// the only goroutine this package launches, and the only code driving
// db.Insert/Update/Delete and MaintainAll once a Server is attached —
// drains them into batches and commits each batch as one maintenance
// round. Batches cut on three triggers: MaxBatch pending ops, MaxDelay
// elapsed since the batch's first op, or an explicit Flush. §5 log
// compaction makes the per-op cost of a round shrink as batches grow, so
// the knobs trade write latency against amortization.
//
// Dispatcher state machine:
//
//	idle ──op──▶ collecting ──MaxBatch/MaxDelay/Flush──▶ committing ──▶ idle
//	  │                                                      ▲
//	  └──Flush (log nonempty)─────────────────────────────────┘
//
// Committing applies each op to the catalog (per-op errors stick to the
// op), runs MaintainAll once, then resolves every op's Pending with its
// own apply error or, failing that, the round error. Close drains the
// queue, commits a final batch, and stops the goroutine.
//
// A panic during a commit (a storage fault, a round hook) is contained:
// the dispatcher resolves the batch it was committing and any Flush
// waiting on it with an ErrFailed error, then answers every later op and
// Flush with that same error at once until Close. The database state
// after the panic is unknown, so nothing is applied or maintained again.

package serve

import (
	"errors"
	"fmt"
	"time"

	"idivm/internal/rel"
)

// ErrClosed is returned by enqueue, Flush and Wait when the server was
// closed before the operation could commit.
var ErrClosed = errors.New("serve: server closed")

// ErrFailed wraps the error every Pending, Flush and snapshot read that
// cannot complete reports after the dispatcher panicked.
var ErrFailed = errors.New("serve: dispatcher failed")

type opKind uint8

const (
	opInsert opKind = iota
	opUpdate
	opDelete
)

// pendingOp is one enqueued modification plus its completion channel.
type pendingOp struct {
	kind  opKind
	table string
	row   rel.Tuple   // insert
	key   []rel.Value // update, delete
	attrs []string    // update
	vals  []rel.Value // update
	err   error       // apply error, set during commit
	done  chan error
}

// Pending is a handle on an enqueued modification; Wait blocks until the
// batch containing it has committed (applied and maintained) and returns
// the op's apply error or the round error.
type Pending struct{ done chan error }

// Wait blocks until the op's batch commits.
func (p *Pending) Wait() error { return <-p.done }

// NewFailedPending returns a Pending already resolved with err — for
// callers whose argument conversion fails before anything is enqueued.
func NewFailedPending(err error) *Pending {
	done := make(chan error, 1)
	done <- err
	return &Pending{done: done}
}

// EnqueueInsert queues an insert for the next batch.
func (s *Server) EnqueueInsert(table string, row rel.Tuple) *Pending {
	return s.enqueue(&pendingOp{kind: opInsert, table: table, row: row, done: make(chan error, 1)})
}

// EnqueueUpdate queues a primary-key update for the next batch. A missing
// key is not an error (no row, no modification), matching db.Update.
func (s *Server) EnqueueUpdate(table string, key []rel.Value, attrs []string, vals []rel.Value) *Pending {
	return s.enqueue(&pendingOp{kind: opUpdate, table: table, key: key, attrs: attrs, vals: vals, done: make(chan error, 1)})
}

// EnqueueDelete queues a primary-key delete for the next batch. A missing
// key is not an error, matching db.Delete.
func (s *Server) EnqueueDelete(table string, key []rel.Value) *Pending {
	return s.enqueue(&pendingOp{kind: opDelete, table: table, key: key, done: make(chan error, 1)})
}

// Insert enqueues and waits for the containing batch to commit.
func (s *Server) Insert(table string, row rel.Tuple) error {
	return s.EnqueueInsert(table, row).Wait()
}

// Update enqueues and waits for the containing batch to commit.
func (s *Server) Update(table string, key []rel.Value, attrs []string, vals []rel.Value) error {
	return s.EnqueueUpdate(table, key, attrs, vals).Wait()
}

// Delete enqueues and waits for the containing batch to commit.
func (s *Server) Delete(table string, key []rel.Value) error {
	return s.EnqueueDelete(table, key).Wait()
}

// enqueue hands an op to the dispatcher. The RLock pairs with Close's
// Lock: an op admitted here is observed by the dispatcher's final drain,
// so every Pending is always resolved.
func (s *Server) enqueue(op *pendingOp) *Pending {
	p := &Pending{done: op.done}
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		op.done <- ErrClosed
		return p
	}
	s.opCh <- op
	s.closeMu.RUnlock()
	return p
}

// Flush forces an immediate commit of everything enqueued so far (and any
// directly-logged modifications) and waits for the round to complete. The
// dispatcher serializes it after every op already in the queue.
func (s *Server) Flush() error {
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return ErrClosed
	}
	ack := make(chan error, 1)
	s.flushCh <- ack
	s.closeMu.RUnlock()
	return <-ack
}

// Close stops accepting modifications, commits a final batch of whatever
// is queued, and stops the dispatcher. It returns the dispatcher's
// ErrFailed error if it panicked, nil otherwise. Safe to call more than
// once.
func (s *Server) Close() error {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		<-s.done
		return nil
	}
	s.closed = true
	s.closeMu.Unlock()
	close(s.quit)
	<-s.done
	return s.failure()
}

// failure returns the dispatcher's panic error, or nil while it is
// healthy.
func (s *Server) failure() error {
	if err := s.fault.Load(); err != nil {
		return *err
	}
	return nil
}

// start launches the dispatcher goroutine — the package's only go
// statement, in the package's one gostmt-blessed file.
func (s *Server) start() {
	go s.dispatch()
}

// dispatch is the dispatcher goroutine body: collect, cut, commit.
func (s *Server) dispatch() {
	defer close(s.done)
	var batch []*pendingOp
	var flushAck chan error // the Flush waiting on the commit in progress
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		err := fmt.Errorf("%w: panic: %v", ErrFailed, r)
		s.fault.Store(&err)
		// A panic cuts commit short before it resolves any op.
		for _, op := range batch {
			op.done <- err
		}
		if flushAck != nil {
			flushAck <- err
		}
		s.failed(err)
	}()
	var timer *time.Timer
	var timeout <-chan time.Time

	stopTimer := func() {
		if timer != nil {
			timer.Stop()
			timer = nil
			timeout = nil
		}
	}
	commit := func() error {
		stopTimer()
		err := s.commit(batch)
		batch = nil
		return err
	}

	for {
		select {
		case op := <-s.opCh:
			batch = append(batch, op)
			switch {
			case len(batch) >= s.opts.MaxBatch:
				commit()
			case s.opts.MaxDelay <= 0:
				commit()
			case timer == nil:
				timer = time.NewTimer(s.opts.MaxDelay)
				timeout = timer.C
			}
		case <-timeout:
			timer = nil
			timeout = nil
			commit()
		case ack := <-s.flushCh:
			// Drain ops already enqueued before the flush request so a
			// producer's enqueue-then-Flush sequence commits as one batch
			// regardless of which channel the select drained first.
			batch = drain(s.opCh, batch)
			flushAck = ack
			ack <- commit()
			flushAck = nil
		case <-s.quit:
			// Drain ops admitted before Close flipped the flag, then
			// commit the final batch. No enqueue can race past this:
			// admission holds closeMu.RLock, and quit closes only after
			// Close held the write lock. Subscription channels close last,
			// after the final round's deltas were offered (with quit
			// closed, publish delivers best-effort — see subscribe.go).
			batch = drain(s.opCh, batch)
			commit()
			s.closeSubs()
			return
		}
	}
}

// failed is the dispatcher after a panic: until Close it answers every op
// and Flush with err at once, so no caller blocks on a dead dispatcher.
func (s *Server) failed(err error) {
	for {
		select {
		case op := <-s.opCh:
			op.done <- err
		case ack := <-s.flushCh:
			ack <- err
		case <-s.quit:
			for _, op := range drain(s.opCh, nil) {
				op.done <- err
			}
			s.closeSubs()
			return
		}
	}
}

// drain appends every op already buffered in ch to batch without
// blocking.
func drain(ch chan *pendingOp, batch []*pendingOp) []*pendingOp {
	for {
		select {
		case op := <-ch:
			batch = append(batch, op)
		default:
			return batch
		}
	}
}

// commit applies the batch to the catalog and runs one maintenance round,
// publishes the round's applied i-diffs to subscribers, then resolves
// every op. A no-op batch over an empty log skips the round entirely (a
// Flush on an idle server costs nothing, and subscribers see no delta).
func (s *Server) commit(batch []*pendingOp) error {
	if len(batch) == 0 && len(s.d.Log()) == 0 {
		return nil
	}
	for _, op := range batch {
		op.err = s.apply(op)
	}
	reports, roundErr := s.sys.MaintainAll()
	s.batches.Add(1)
	s.ops.Add(int64(len(batch)))
	if roundErr == nil {
		// Deliver before resolving the Pendings: a writer that observes
		// its Wait return knows every subscriber was offered the round
		// (bounded-buffer backpressure — a full subscriber blocks here).
		s.publish(reports)
	}
	for _, op := range batch {
		if op.err == nil {
			op.err = roundErr
		}
		op.done <- op.err
	}
	return roundErr
}

// apply executes one op against the catalog (the single-writer path).
func (s *Server) apply(op *pendingOp) error {
	switch op.kind {
	case opInsert:
		return s.d.Insert(op.table, op.row)
	case opUpdate:
		_, err := s.d.Update(op.table, op.key, op.attrs, op.vals)
		return err
	default:
		_, err := s.d.Delete(op.table, op.key)
		return err
	}
}
