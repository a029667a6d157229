package ad

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"slices"

	"condmon/internal/event"
	"condmon/internal/seq"
)

// Snapshotter is implemented by filters whose state can be serialized and
// restored — what a production Alert Displayer needs to survive a device
// restart without forgetting which alerts it already showed (losing AD-1
// state re-displays duplicates; losing AD-3 state forgets recorded
// Received/Missed evidence and can re-admit conflicting alerts).
//
// A restored filter behaves identically to one that processed the same
// alert stream uninterrupted; see TestSnapshotRoundTripEquivalence.
type Snapshotter interface {
	Filter
	// Snapshot serializes the filter's current state.
	Snapshot() ([]byte, error)
	// Restore replaces the filter's state with a prior snapshot. The
	// snapshot must come from the same algorithm and configuration.
	Restore(data []byte) error
}

// Interface conformance.
var (
	_ Snapshotter = (*AD1)(nil)
	_ Snapshotter = (*AD2)(nil)
	_ Snapshotter = (*AD3)(nil)
	_ Snapshotter = (*AD5)(nil)
	_ Snapshotter = (*Combine)(nil)
	_ Snapshotter = (*AD1Digest)(nil)
)

// snapFormat is the first byte of every snapshot this package writes. The
// snapshots of earlier builds were tag-less gob streams, which open with
// the byte length of a type descriptor — a uvarint gob writes as one byte
// below 0x80 or as a negated byte count at 0xF8 and above — so 0xAD can
// never begin one, and Restore tells the two apart by it.
const snapFormat = 0xAD

// State kinds: the byte after snapFormat, and in front of every
// constituent inside a Combine, naming the filter the state belongs to.
const (
	kindAD1       = '1'
	kindAD1Digest = 'd'
	kindAD2       = '2'
	kindAD3       = '3'
	kindAD5       = '5'
	kindCombine   = '&'
)

// stateCodec is the streaming form of Snapshotter that this package's
// filters implement. A snapshot is snapFormat followed by one state:
//
//	state    kind body
//	AD-1     '1' keys                     AD-1d  'd' keys
//	AD-2     '2' str(var) varint(last)
//	AD-3     '3' uvarint(nvars) nvars×(str(var) seqs(Received) seqs(Missed)) keys
//	AD-5     '5' uvarint(nvars) nvars×(str(var) varint(last))
//	Combine  '&' uvarint(nparts) nparts×state
//	keys     uvarint(n) n×str             seqs   uvarint(n) n×varint
//	str      uvarint(len) bytes
//
// Sets are written in map order, straight from the maps: a snapshot is
// not canonical, only equivalent. States are self-delimiting, which is
// what lets a Combine hold its constituents in place.
type stateCodec interface {
	// appendState appends the filter's state to dst.
	appendState(dst []byte) ([]byte, error)
	// readState parses one state from d — failures stick to d — and
	// returns the assignment that installs it, so that a Restore changes
	// nothing unless the whole snapshot is well formed.
	readState(d *dec) (commit func())
}

func snapshot(f stateCodec) ([]byte, error) {
	return f.appendState([]byte{snapFormat})
}

// restore installs a snapshot into f: the streaming format when data
// carries its format byte, otherwise whatever legacy makes of it.
func restore(f stateCodec, data []byte, legacy func([]byte) error) error {
	if len(data) == 0 || data[0] != snapFormat {
		return legacy(data)
	}
	d := &dec{b: data[1:]}
	commit := f.readState(d)
	if d.err == nil && len(d.b) != 0 {
		d.failf("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return fmt.Errorf("ad: restore: %w", d.err)
	}
	commit()
	return nil
}

func gobDecode(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("ad: restore: %w", err)
	}
	return nil
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendKeys sizes dst for the whole set before writing it: a large set is
// then built in one allocation, where append's doubling would copy it
// twice over. Map order is random, so the first keys are a fair sample of
// the lengths; an underestimate costs one more growth, nothing else.
func appendKeys(dst []byte, m map[string]struct{}) []byte {
	const sample = 32
	n, total := 0, 0
	for k := range m {
		total += len(k)
		if n++; n == sample {
			break
		}
	}
	if n > 0 {
		dst = slices.Grow(dst, binary.MaxVarintLen64+len(m)*(total/n+2))
	}
	dst = binary.AppendUvarint(dst, uint64(len(m)))
	for k := range m {
		dst = appendStr(dst, k)
	}
	return dst
}

func appendSeqs(dst []byte, s seq.Set) []byte {
	dst = slices.Grow(dst, binary.MaxVarintLen64+4*len(s))
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	for n := range s {
		dst = binary.AppendVarint(dst, n)
	}
	return dst
}

// dec is a bounds-checked cursor over a snapshot. The first failure
// sticks: it empties the input, so every later read returns a zero value
// and a caller checks err once, after parsing.
type dec struct {
	b   []byte
	err error
}

func (d *dec) failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.b = nil
}

// kind consumes a state's kind byte, which must be want.
func (d *dec) kind(want byte) {
	if len(d.b) == 0 {
		d.failf("truncated state kind")
		return
	}
	if d.b[0] != want {
		d.failf("snapshot holds state %q, filter wants %q", d.b[0], want)
		return
	}
	d.b = d.b[1:]
}

func (d *dec) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.failf("truncated or oversized uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.failf("truncated or oversized varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads an element count and rejects one whose elements, at one
// byte each at the least, could not fit in the remaining input — the
// guard that keeps a damaged count from sizing an allocation.
func (d *dec) count() int {
	v := d.uvarint()
	if v > uint64(len(d.b)) {
		d.failf("count %d exceeds remaining %d bytes", v, len(d.b))
		return 0
	}
	return int(v)
}

func (d *dec) str() string {
	n := d.count()
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *dec) keys() map[string]struct{} {
	n := d.count()
	m := make(map[string]struct{}, n)
	for i := 0; i < n && d.err == nil; i++ {
		m[d.str()] = struct{}{}
	}
	return m
}

func (d *dec) seqs() seq.Set {
	n := d.count()
	s := make(seq.Set, n)
	for i := 0; i < n && d.err == nil; i++ {
		s.Add(d.varint())
	}
	return s
}

// varName consumes a variable name, which must be want.
func (d *dec) varName(want event.VarName) {
	if v := d.str(); d.err == nil && event.VarName(v) != want {
		d.failf("snapshot variable %q does not match filter variable %q", v, want)
	}
}

// varCount consumes a variable count, which must be want.
func (d *dec) varCount(want int) {
	if n := d.count(); d.err == nil && n != want {
		d.failf("snapshot covers %d variables, filter has %d", n, want)
	}
}

func keySet(keys []string) map[string]struct{} {
	out := make(map[string]struct{}, len(keys))
	for _, k := range keys {
		out[k] = struct{}{}
	}
	return out
}

// Snapshot implements Snapshotter.
func (f *AD1) Snapshot() ([]byte, error) { return snapshot(f) }

// Restore implements Snapshotter.
func (f *AD1) Restore(data []byte) error { return restore(f, data, f.restoreGob) }

func (f *AD1) appendState(dst []byte) ([]byte, error) {
	return appendKeys(append(dst, kindAD1), f.seen), nil
}

func (f *AD1) readState(d *dec) func() {
	d.kind(kindAD1)
	seen := d.keys()
	return func() { f.seen = seen }
}

// Snapshot implements Snapshotter.
func (f *AD1Digest) Snapshot() ([]byte, error) { return snapshot(f) }

// Restore implements Snapshotter.
func (f *AD1Digest) Restore(data []byte) error { return restore(f, data, f.restoreGob) }

func (f *AD1Digest) appendState(dst []byte) ([]byte, error) {
	return appendKeys(append(dst, kindAD1Digest), f.seen), nil
}

func (f *AD1Digest) readState(d *dec) func() {
	d.kind(kindAD1Digest)
	seen := d.keys()
	return func() { f.seen = seen }
}

// Snapshot implements Snapshotter.
func (f *AD2) Snapshot() ([]byte, error) { return snapshot(f) }

// Restore implements Snapshotter.
func (f *AD2) Restore(data []byte) error { return restore(f, data, f.restoreGob) }

func (f *AD2) appendState(dst []byte) ([]byte, error) {
	dst = appendStr(append(dst, kindAD2), string(f.varName))
	return binary.AppendVarint(dst, f.last), nil
}

func (f *AD2) readState(d *dec) func() {
	d.kind(kindAD2)
	d.varName(f.varName)
	last := d.varint()
	return func() { f.last = last }
}

// Snapshot implements Snapshotter.
func (f *AD3) Snapshot() ([]byte, error) { return snapshot(f) }

// Restore implements Snapshotter.
func (f *AD3) Restore(data []byte) error { return restore(f, data, f.restoreGob) }

func (f *AD3) appendState(dst []byte) ([]byte, error) {
	dst = append(dst, kindAD3)
	dst = binary.AppendUvarint(dst, uint64(len(f.rm)))
	for i := range f.rm {
		e := &f.rm[i]
		dst = appendStr(dst, string(e.v))
		dst = appendSeqs(dst, e.received)
		dst = appendSeqs(dst, e.missed)
	}
	return appendKeys(dst, f.seen), nil
}

func (f *AD3) readState(d *dec) func() {
	d.kind(kindAD3)
	d.varCount(len(f.rm))
	rm := make([]recvMiss, len(f.rm))
	for i := range rm {
		d.varName(f.rm[i].v)
		rm[i] = recvMiss{v: f.rm[i].v, received: d.seqs(), missed: d.seqs()}
	}
	seen := d.keys()
	return func() { f.rm, f.seen = rm, seen }
}

// Snapshot implements Snapshotter.
func (f *AD5) Snapshot() ([]byte, error) { return snapshot(f) }

// Restore implements Snapshotter.
func (f *AD5) Restore(data []byte) error { return restore(f, data, f.restoreGob) }

func (f *AD5) appendState(dst []byte) ([]byte, error) {
	dst = append(dst, kindAD5)
	dst = binary.AppendUvarint(dst, uint64(len(f.vars)))
	for _, v := range f.vars {
		dst = appendStr(dst, string(v))
		dst = binary.AppendVarint(dst, f.last[v])
	}
	return dst, nil
}

func (f *AD5) readState(d *dec) func() {
	d.kind(kindAD5)
	d.varCount(len(f.vars))
	last := make(map[event.VarName]int64, len(f.vars))
	for _, v := range f.vars {
		d.varName(v)
		last[v] = d.varint()
	}
	return func() { f.last = last }
}

// Snapshot implements Snapshotter; every constituent must be one of this
// package's snapshotting filters.
func (f *Combine) Snapshot() ([]byte, error) { return snapshot(f) }

// Restore implements Snapshotter.
func (f *Combine) Restore(data []byte) error { return restore(f, data, f.restoreGob) }

func (f *Combine) appendState(dst []byte) ([]byte, error) {
	dst = append(dst, kindCombine)
	dst = binary.AppendUvarint(dst, uint64(len(f.filters)))
	for _, g := range f.filters {
		c, ok := g.(stateCodec)
		if !ok {
			return nil, fmt.Errorf("ad: snapshot: constituent %s does not support snapshots", g.Name())
		}
		var err error
		if dst, err = c.appendState(dst); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func (f *Combine) readState(d *dec) func() {
	d.kind(kindCombine)
	if n := d.count(); d.err == nil && n != len(f.filters) {
		d.failf("snapshot has %d constituents, filter has %d", n, len(f.filters))
	}
	commits := make([]func(), 0, len(f.filters))
	for _, g := range f.filters {
		c, ok := g.(stateCodec)
		if !ok {
			d.failf("constituent %s does not support snapshots", g.Name())
			break
		}
		commits = append(commits, c.readState(d))
	}
	return func() {
		for _, commit := range commits {
			commit()
		}
	}
}

// What follows reads the snapshots of builds before the streaming format:
// one gob-encoded struct per filter, a Combine nesting one blob per
// constituent. Nothing writes them any more.

type ad1State struct {
	Seen []string
}

func (f *AD1) restoreGob(data []byte) error {
	var st ad1State
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	f.seen = keySet(st.Seen)
	return nil
}

type ad1DigestState struct {
	Seen []string
}

func (f *AD1Digest) restoreGob(data []byte) error {
	var st ad1DigestState
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	f.seen = keySet(st.Seen)
	return nil
}

type ad2State struct {
	Var  event.VarName
	Last int64
}

func (f *AD2) restoreGob(data []byte) error {
	var st ad2State
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	if st.Var != f.varName {
		return fmt.Errorf("ad: restore: snapshot is for variable %q, filter watches %q", st.Var, f.varName)
	}
	f.last = st.Last
	return nil
}

type ad3State struct {
	Vars     []event.VarName
	Received map[event.VarName][]int64
	Missed   map[event.VarName][]int64
	Seen     []string
}

func (f *AD3) restoreGob(data []byte) error {
	var st ad3State
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	if len(st.Vars) != len(f.rm) {
		return fmt.Errorf("ad: restore: snapshot covers %d variables, filter has %d", len(st.Vars), len(f.rm))
	}
	for i := range f.rm {
		if st.Vars[i] != f.rm[i].v {
			return fmt.Errorf("ad: restore: snapshot variable %q does not match filter variable %q", st.Vars[i], f.rm[i].v)
		}
	}
	for i := range f.rm {
		e := &f.rm[i]
		e.received = seq.NewSet(st.Received[e.v]...)
		e.missed = seq.NewSet(st.Missed[e.v]...)
	}
	f.seen = keySet(st.Seen)
	return nil
}

type ad5State struct {
	Vars []event.VarName
	Last map[event.VarName]int64
}

func (f *AD5) restoreGob(data []byte) error {
	var st ad5State
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	if len(st.Vars) != len(f.vars) {
		return fmt.Errorf("ad: restore: snapshot covers %d variables, filter has %d", len(st.Vars), len(f.vars))
	}
	for i, v := range f.vars {
		if st.Vars[i] != v {
			return fmt.Errorf("ad: restore: snapshot variable %q does not match filter variable %q", st.Vars[i], v)
		}
	}
	f.last = st.Last
	return nil
}

type combineState struct {
	Parts [][]byte
}

func (f *Combine) restoreGob(data []byte) error {
	var st combineState
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	if len(st.Parts) != len(f.filters) {
		return fmt.Errorf("ad: restore: snapshot has %d constituents, filter has %d", len(st.Parts), len(f.filters))
	}
	for i, g := range f.filters {
		s, ok := g.(Snapshotter)
		if !ok {
			return fmt.Errorf("ad: restore: constituent %s does not support snapshots", g.Name())
		}
		if err := s.Restore(st.Parts[i]); err != nil {
			return err
		}
	}
	return nil
}
