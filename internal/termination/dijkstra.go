package termination

import (
	"hyperfile/internal/object"
)

// ds implements Dijkstra-Scholten diffusing-computation termination.
// Work messages carry no token; every work message is acknowledged with a
// control message, either immediately (receiver already engaged) or when the
// receiver disengages (idle, all own messages acknowledged).
type ds struct {
	self, origin object.SiteID
	engaged      bool
	parent       object.SiteID
	deficit      int // own work messages not yet acknowledged
	done         bool
	m            Metrics
}

var _ Detector = (*ds)(nil)

func newDS(self, origin object.SiteID, m Metrics) *ds {
	d := &ds{self: self, origin: origin, m: m}
	if self == origin {
		// The originator is the root of the engagement tree, engaged for the
		// whole computation.
		d.engaged = true
	}
	return d
}

func (d *ds) isOrigin() bool { return d.self == d.origin }

// OnSend counts an outstanding acknowledgement; the token is empty.
func (d *ds) OnSend(object.SiteID) ([]byte, error) {
	d.deficit++
	d.m.Splits.Inc()
	return nil, nil
}

// OnWorkReceived engages the site under the sender, or acknowledges
// immediately when already engaged.
func (d *ds) OnWorkReceived(from object.SiteID, _ []byte) ([]ControlMsg, error) {
	if d.engaged {
		if from == d.self {
			// Self-delivered work never needs an acknowledgement message.
			return nil, nil
		}
		d.m.Returns.Inc()
		return []ControlMsg{{To: from}}, nil
	}
	d.engaged = true
	d.parent = from
	return nil, nil
}

// HandOff declines: an engagement tree cannot move a parent's obligation
// onto a child's message.
func (d *ds) HandOff([]byte) ([]byte, bool, error) { return nil, false, nil }

// OnIdle disengages when possible: at the root this is global termination;
// elsewhere it acknowledges the parent.
func (d *ds) OnIdle() []ControlMsg {
	if !d.engaged || d.deficit > 0 {
		return nil
	}
	if d.isOrigin() {
		d.done = true
		return nil
	}
	d.engaged = false
	if d.parent == d.self {
		return nil
	}
	d.m.Returns.Inc()
	return []ControlMsg{{To: d.parent}}
}

// OnControl consumes an acknowledgement.
func (d *ds) OnControl(from object.SiteID, _ []byte) error {
	if d.deficit == 0 {
		return tokenErr("unexpected acknowledgement from %v at %v", from, d.self)
	}
	d.deficit--
	return nil
}

// Done reports root disengagement.
func (d *ds) Done() bool { return d.done }

// Quiet reports that this detector has no obligations left: it is
// disengaged (or the root) and every message it sent has been acknowledged.
func (d *ds) Quiet() bool { return d.deficit == 0 && (!d.engaged || d.isOrigin()) }
