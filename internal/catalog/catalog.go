// Package catalog holds the metadata PayLess learns when registering with a
// data market (paper §2, Fig. 2): table schemas, binding patterns, attribute
// domains and cardinalities, and which tables are local to the buyer's DBMS.
//
// The paper writes a binding pattern as R(A1^b, A2^f): attribute A1 must be
// bound in every call, A2 is free (may be bound), and attributes absent from
// the pattern are output-only. Datasets in the market carry only basic
// statistics — attribute domains and table cardinality (§2.1) — which is
// exactly what the catalog records.
package catalog

import (
	"fmt"
	"strings"
	"time"
	"unicode/utf8"

	"payless/internal/region"
	"payless/internal/value"
)

// BindingClass classifies an attribute's role in a table's access pattern.
type BindingClass uint8

const (
	// Free attributes may be bound in a call or left unconstrained.
	Free BindingClass = iota
	// Bound attributes must be given a value or range in every call.
	Bound
	// Output attributes never appear in a call's predicate; they are only
	// returned in results.
	Output
)

// String returns the paper's superscript notation for the class.
func (b BindingClass) String() string {
	switch b {
	case Free:
		return "f"
	case Bound:
		return "b"
	case Output:
		return "o"
	default:
		return "?"
	}
}

// AttrClass distinguishes how an attribute maps onto a box axis.
type AttrClass uint8

const (
	// NumericAttr attributes take int64 values with a [Min, Max] domain;
	// calls may bind them with a point or a range.
	NumericAttr AttrClass = iota
	// CategoricalAttr attributes take values from an ordered finite domain;
	// calls may bind them with a single value only (paper §4.2, Fig. 8).
	CategoricalAttr
)

// Attribute describes one column's access metadata.
type Attribute struct {
	Name    string
	Type    value.Kind
	Binding BindingClass
	Class   AttrClass
	// Domain holds the ordered values of a categorical attribute.
	Domain []value.Value
	// Min and Max delimit the inclusive domain of a numeric attribute.
	Min, Max int64
}

// DomainWidth returns the number of coordinates on the attribute's axis.
func (a Attribute) DomainWidth() int64 {
	if a.Class == CategoricalAttr {
		return int64(len(a.Domain))
	}
	return a.Max - a.Min + 1
}

// FullInterval returns the attribute's whole domain as a half-open interval
// in coordinate space.
func (a Attribute) FullInterval() region.Interval {
	if a.Class == CategoricalAttr {
		return region.Interval{Lo: 0, Hi: int64(len(a.Domain))}
	}
	return region.Interval{Lo: a.Min, Hi: a.Max + 1}
}

// Coord maps a value to its coordinate on the attribute's axis.
func (a Attribute) Coord(v value.Value) (int64, error) {
	if a.Class == CategoricalAttr {
		for i, d := range a.Domain {
			if d.Equal(v) {
				return int64(i), nil
			}
		}
		return 0, fmt.Errorf("value %v not in domain of %s", v, a.Name)
	}
	if v.K != value.Int {
		return 0, fmt.Errorf("numeric attribute %s requires int value, got %v", a.Name, v.K)
	}
	return v.Int64(), nil
}

// ValueAt maps a coordinate back to the attribute's value.
func (a Attribute) ValueAt(coord int64) (value.Value, error) {
	if a.Class == CategoricalAttr {
		if coord < 0 || coord >= int64(len(a.Domain)) {
			return value.Value{}, fmt.Errorf("coordinate %d outside domain of %s", coord, a.Name)
		}
		return a.Domain[coord], nil
	}
	return value.NewInt(coord), nil
}

// Mirror names one market endpoint offering a table. A federated buyer sees
// the same logical dataset from several regions/mirrors at different prices
// and latencies ("Joint Data Purchasing and Data Placement in a
// Geo-Distributed Data Market"); the catalog records, per table, which
// endpoints carry it and at what terms.
type Mirror struct {
	// Endpoint is the federation endpoint name (matches the endpoint the
	// buyer configured, e.g. "us-east").
	Endpoint string
	// PriceFactor scales the table's list PricePerTransaction at this
	// mirror; 0 means list price (factor 1).
	PriceFactor float64
	// LatencyHint is the static expected round-trip to this mirror, used by
	// the source-selection cost model until observed latencies accumulate.
	LatencyHint time.Duration
}

// Table describes one dataset table registered with PayLess.
type Table struct {
	// Dataset is the market dataset the table belongs to (e.g. "WHW");
	// empty for local tables.
	Dataset string
	Name    string
	Schema  value.Schema
	// Attrs is parallel to Schema and carries access metadata.
	Attrs []Attribute
	// Cardinality is the published row count (basic statistic, §2.1).
	Cardinality int64
	// Local marks tables that live in the buyer's DBMS and cost nothing.
	Local bool
	// PricePerTransaction is the seller's price p for one transaction.
	PricePerTransaction float64
	// Mirrors pins the table to the market endpoints listed, at the terms
	// given there. Empty means every endpoint offers it at the endpoint's
	// own terms. The client reads it once at Open and never writes it.
	Mirrors []Mirror
}

// NumDims returns the number of attributes that participate in the access
// pattern (Bound or Free): the dimensionality of the table's boxes.
func (t *Table) NumDims() int {
	n := 0
	for _, a := range t.Attrs {
		if a.Binding != Output {
			n++
		}
	}
	return n
}

// Dim returns the box dimension of the named attribute and its metadata;
// dim is -1 when the table has no such queryable attribute.
func (t *Table) Dim(name string) (dim int, attr Attribute) {
	for _, a := range t.Attrs {
		if a.Binding == Output {
			continue
		}
		if strings.EqualFold(a.Name, name) {
			return dim, a
		}
		dim++
	}
	return -1, Attribute{}
}

// Attr returns the attribute metadata for the named column.
func (t *Table) Attr(name string) (Attribute, bool) {
	for _, a := range t.Attrs {
		if strings.EqualFold(a.Name, name) {
			return a, true
		}
	}
	return Attribute{}, false
}

// FullBox returns the box covering the table's whole queryable space —
// the region retrieved by a call with no predicates ("download the whole
// table by not specifying any value to any attribute", §1).
func (t *Table) FullBox() region.Box {
	dims := make([]region.Interval, 0, t.NumDims())
	for _, a := range t.Attrs {
		if a.Binding != Output {
			dims = append(dims, a.FullInterval())
		}
	}
	return region.Box{Dims: dims}
}

// BindingPattern renders the table's access pattern in the paper's notation,
// e.g. "Weather(Country^f, StationID^f, Date^f)".
func (t *Table) BindingPattern() string {
	var parts []string
	for _, a := range t.Attrs {
		if a.Binding == Output {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s^%s", a.Name, a.Binding))
	}
	return fmt.Sprintf("%s(%s)", t.Name, strings.Join(parts, ", "))
}

// Catalog is the registry of all tables PayLess knows about.
type Catalog struct {
	tables map[string]*Table
	order  []string
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// MaxDims bounds a table's queryable attributes, the dimensions of its
// boxes: a binder tracks a relation's constrained dimensions in one word.
const MaxDims = 64

// Register adds a table. It returns an error on duplicate names or invalid
// metadata (bound output attributes, empty categorical domains, inverted
// numeric domains, more than MaxDims queryable attributes).
func (c *Catalog) Register(t *Table) error {
	key := strings.ToLower(t.Name)
	if _, dup := c.tables[key]; dup {
		return fmt.Errorf("table %s already registered", t.Name)
	}
	if len(t.Attrs) != len(t.Schema) {
		return fmt.Errorf("table %s: %d attrs for %d columns", t.Name, len(t.Attrs), len(t.Schema))
	}
	for i, a := range t.Attrs {
		if !strings.EqualFold(a.Name, t.Schema[i].Name) {
			return fmt.Errorf("table %s: attr %q does not match column %q", t.Name, a.Name, t.Schema[i].Name)
		}
		if a.Binding == Output {
			continue
		}
		switch a.Class {
		case CategoricalAttr:
			if len(a.Domain) == 0 {
				return fmt.Errorf("table %s: categorical attribute %s has empty domain", t.Name, a.Name)
			}
			// The codecs write invalid UTF-8 as U+FFFD: it could not round-trip.
			for _, v := range a.Domain {
				if v.K == value.String && !utf8.ValidString(v.Str()) {
					return fmt.Errorf("table %s: categorical attribute %s: domain value %q is not valid UTF-8", t.Name, a.Name, v.Str())
				}
			}
		case NumericAttr:
			if a.Min > a.Max {
				return fmt.Errorf("table %s: numeric attribute %s has inverted domain [%d,%d]", t.Name, a.Name, a.Min, a.Max)
			}
		}
	}
	if n := t.NumDims(); n > MaxDims {
		return fmt.Errorf("table %s: %d queryable attributes, at most %d", t.Name, n, MaxDims)
	}
	c.tables[key] = t
	c.order = append(c.order, key)
	return nil
}

// Lookup returns the named table (case-insensitive).
func (c *Catalog) Lookup(name string) (*Table, bool) {
	t, ok := c.tables[strings.ToLower(name)]
	return t, ok
}

// Tables returns all registered tables in registration order.
func (c *Catalog) Tables() []*Table {
	out := make([]*Table, 0, len(c.order))
	for _, k := range c.order {
		out = append(out, c.tables[k])
	}
	return out
}
