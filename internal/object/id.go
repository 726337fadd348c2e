// Package object defines the HyperFile data model: objects are unordered
// sets of (type, key, data) tuples, identified by globally unique ids that
// encode the site at which the object was created (its "birth site").
//
// The model follows Clifton & Garcia-Molina, "Distributed Processing of
// Filtering Queries in HyperFile" (ICDCS 1991), section 2: there is no rigid
// schema and no object classes; tuples are self-describing records. The only
// structure HyperFile understands are the simple value kinds (strings,
// numbers, keywords, pointers); everything else is opaque bytes.
package object

import (
	"cmp"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// SiteID identifies a HyperFile server site. Site 0 is reserved as the
// invalid/unknown site.
type SiteID uint32

// InvalidSite is the zero SiteID; no real site ever has this id.
const InvalidSite SiteID = 0

// String returns the conventional "s<N>" rendering of a site id.
func (s SiteID) String() string { return "s" + strconv.FormatUint(uint64(s), 10) }

// ID is a globally unique object identifier. Following the R*-style naming
// scheme the paper adopts (section 4), an id permanently records the object's
// birth site; the birth site is the final arbiter of the object's current
// location even after the object migrates.
type ID struct {
	// Birth is the site at which the object was created. It never changes,
	// even if the object moves.
	Birth SiteID
	// Seq is a per-birth-site sequence number.
	Seq uint64
}

// NilID is the zero ID, used to mean "no object".
var NilID = ID{}

// IsNil reports whether id is the zero id.
func (id ID) IsNil() bool { return id == NilID }

// String renders an id as "birth:seq", e.g. "s3:17".
func (id ID) String() string {
	return id.Birth.String() + ":" + strconv.FormatUint(id.Seq, 10)
}

// Less imposes a total order on ids (birth site first, then sequence). It is
// used to produce deterministic result listings.
func (id ID) Less(other ID) bool { return id.Compare(other) < 0 }

// Compare is the same order as a three-way comparison (-1, 0, +1), the form
// slices.SortFunc takes.
func (id ID) Compare(other ID) int {
	if c := cmp.Compare(id.Birth, other.Birth); c != 0 {
		return c
	}
	return cmp.Compare(id.Seq, other.Seq)
}

// ErrBadID is returned by ParseID for malformed id strings.
var ErrBadID = errors.New("object: malformed id")

// ParseID parses the "s<site>:<seq>" form produced by ID.String.
func ParseID(s string) (ID, error) {
	rest, ok := strings.CutPrefix(s, "s")
	if !ok {
		return NilID, fmt.Errorf("%w: %q missing site prefix", ErrBadID, s)
	}
	sitePart, seqPart, ok := strings.Cut(rest, ":")
	if !ok {
		return NilID, fmt.Errorf("%w: %q missing ':'", ErrBadID, s)
	}
	site, err := strconv.ParseUint(sitePart, 10, 32)
	if err != nil {
		return NilID, fmt.Errorf("%w: bad site in %q: %v", ErrBadID, s, err)
	}
	seq, err := strconv.ParseUint(seqPart, 10, 64)
	if err != nil {
		return NilID, fmt.Errorf("%w: bad seq in %q: %v", ErrBadID, s, err)
	}
	return ID{Birth: SiteID(site), Seq: seq}, nil
}
