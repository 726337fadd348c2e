package main

import (
	"bytes"
	"fmt"
	"time"

	"hyperfile/internal/metrics"
	"hyperfile/internal/object"
	"hyperfile/internal/site"
	"hyperfile/internal/wire"
)

// replaySample is how many queries of the workload's list the traced pass
// replays in-process.
const replaySample = 200

// maxFrame bounds a replayed frame's payload, as the transport does.
const maxFrame = 64 << 20

// replayStats is what one in-process replay of the sample counted.
type replayStats struct {
	Queries  int
	Msgs     int // frames moved, Submit and Complete included
	Bytes    int // frame bytes moved
	Elapsed  time.Duration
	Failures []failure
	// Common is one message of the kind the stream carried most often, the
	// payload for the transport micro-benchmark.
	Common wire.Msg
}

// inbox is one endpoint's queue of encoded frames.
type inbox struct {
	frames [][]byte
	head   int
}

func (b *inbox) push(f []byte) { b.frames = append(b.frames, f) }
func (b *inbox) empty() bool   { return b.head == len(b.frames) }
func (b *inbox) pop() []byte {
	f := b.frames[b.head]
	b.frames[b.head] = nil
	b.head++
	if b.empty() {
		b.frames, b.head = b.frames[:0], 0
	}
	return f
}

// replayer is the single-goroutine driver of the traced pass. It owns three
// sites over the staged stores and moves every envelope through the wire
// codec and framing exactly as the transport would, minus the sockets.
type replayer struct {
	tr      *tracer
	sites   map[object.SiteID]*site.Site
	order   []object.SiteID
	boxes   map[object.SiteID]*inbox
	scratch []byte
	seq     uint64
	stats   replayStats
	kinds   map[wire.Kind]int
	sample  map[wire.Kind]wire.Msg
	done    *wire.Complete
}

func newReplayer(stage *staging, tr *tracer) *replayer {
	r := &replayer{
		tr:     tr,
		sites:  make(map[object.SiteID]*site.Site),
		order:  stage.sites,
		boxes:  map[object.SiteID]*inbox{clientSite: {}},
		kinds:  make(map[wire.Kind]int),
		sample: make(map[wire.Kind]wire.Msg),
	}
	for _, id := range stage.sites {
		var peers []object.SiteID
		for _, p := range stage.sites {
			if p != id {
				peers = append(peers, p)
			}
		}
		// The configuration hyperfiled builds from default flags: a metrics
		// registry and a trace ring, nothing else switched on.
		r.sites[id] = site.New(site.Config{
			ID: id, Store: stage.stores[id], Peers: peers,
			Metrics: metrics.NewRegistry(), Traces: site.NewTraceBuffer(0),
		})
		r.boxes[id] = &inbox{}
	}
	return r
}

// send encodes and frames one envelope and queues it at its destination.
func (r *replayer) send(from object.SiteID, env wire.Envelope, q uint64) {
	s := r.tr.begin("wire.EncodeTo", q)
	r.scratch = wire.EncodeTo(r.scratch[:0], env.Msg)
	r.tr.end(s)
	r.seq++
	s = r.tr.begin("wire.AppendFrameMsg", q)
	frame := wire.AppendFrameMsg(make([]byte, 0, 128), from, 1, r.seq, env.Msg)
	r.tr.end(s)
	r.stats.Msgs++
	r.stats.Bytes += len(frame)
	k := env.Msg.Kind()
	if r.kinds[k]++; r.sample[k] == nil {
		r.sample[k] = env.Msg
	}
	r.boxes[env.To].push(frame)
}

// deliver reads, decodes and handles one frame at endpoint to.
func (r *replayer) deliver(to object.SiteID, frame []byte, q uint64) error {
	s := r.tr.begin("wire.ReadFrame", q)
	f, err := wire.ReadFrame(bytes.NewReader(frame), maxFrame)
	r.tr.end(s)
	if err != nil {
		return err
	}
	s = r.tr.begin("wire.Decode", q)
	m, err := wire.Decode(f.Payload)
	r.tr.end(s)
	if err != nil {
		return err
	}
	if to == clientSite {
		if c, ok := m.(*wire.Complete); ok {
			r.done = c
		}
		return nil
	}
	s = r.tr.begin("site.HandleMessage", q)
	out, err := r.sites[to].HandleMessage(f.From, m)
	r.tr.end(s)
	if err != nil {
		return err
	}
	for _, env := range out {
		r.send(to, env, q)
	}
	return nil
}

// runQuery submits one query and drives the three sites until every inbox
// and working set is empty. Like server.Server's loop, a site handles its
// queued messages before it steps.
func (r *replayer) runQuery(seq uint64, it *queryItem) (*wire.Complete, error) {
	root := r.tr.begin("query", seq)
	defer r.tr.end(root)
	r.done = nil
	r.send(clientSite, wire.Envelope{To: it.Origin, Msg: &wire.Submit{
		QID:    wire.QueryID{Origin: it.Origin, Seq: seq},
		Client: clientSite, Body: it.Body, Initial: it.Initial,
	}}, seq)
	for busy := true; busy; {
		busy = false
		for !r.boxes[clientSite].empty() {
			if err := r.deliver(clientSite, r.boxes[clientSite].pop(), seq); err != nil {
				return nil, err
			}
		}
		for _, id := range r.order {
			if box := r.boxes[id]; !box.empty() {
				busy = true
				if err := r.deliver(id, box.pop(), seq); err != nil {
					return nil, err
				}
				continue
			}
			st := r.sites[id]
			if !st.HasWork() {
				continue
			}
			busy = true
			s := r.tr.begin("site.Step", seq)
			_, out, _, err := st.Step()
			r.tr.end(s)
			if err != nil {
				return nil, err
			}
			for _, env := range out {
				r.send(id, env, seq)
			}
		}
	}
	return r.done, nil
}

// replay runs the first replaySample queries of the list through fresh
// in-process sites, with spans recorded into tr (nil records none), and
// checks every answer against the oracle.
func replay(d *dataset, tr *tracer) (replayStats, error) {
	r := newReplayer(d.stage, tr)
	n := min(replaySample, len(d.items))
	start := time.Now()
	for i := 0; i < n; i++ {
		it := &d.items[i]
		reply, err := r.runQuery(uint64(i+1), it)
		switch {
		case err != nil:
			return r.stats, fmt.Errorf("replay of query %d: %w", i, err)
		case reply == nil:
			r.stats.Failures = append(r.stats.Failures, failure{i, it.Body, "replay: no Complete"})
		case reply.Err != "" || reply.Partial:
			r.stats.Failures = append(r.stats.Failures, failure{i, it.Body, "replay: " + reply.Err + reply.Reason})
		case !sameIDs(reply.IDs, it.Want):
			r.stats.Failures = append(r.stats.Failures, failure{i, it.Body, "replay: answer differs from oracle"})
		}
	}
	r.stats.Elapsed = time.Since(start)
	r.stats.Queries = n
	best, bestKind := 0, wire.KInvalid
	for k, c := range r.kinds {
		if c > best || (c == best && k < bestKind) {
			best, bestKind = c, k
		}
	}
	r.stats.Common = r.sample[bestKind]
	return r.stats, nil
}
