package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"privcount/internal/core"
)

// This file is the binary artifact codec for built mechanisms — the
// persistence format of the store tier (store.go) and the payload of
// GET/PUT /v2/mechanisms/{id}/artifact. A built mechanism is pure data,
// fully determined by its canonical Spec ID: the probability matrix,
// the metadata the serving layer reports (name, rule, properties), and
// the estimation tables. The alias sampling tables are NOT encoded;
// they are rebuilt from the matrix in O(n²) on load, which keeps the
// format small and the loader trivially verifiable.
//
// Artifact grammar (all integers little-endian, varints unsigned LEB128
// as encoding/binary uvarints):
//
//	artifact = magic version section* end crc
//	magic    = "PCA1"
//	version  = uvarint(1)
//	section  = uvarint(tag) uvarint(len(payload)) payload   ; tag >= 1
//	end      = uvarint(0)
//	crc      = 4-byte IEEE CRC-32 of every preceding byte
//
// Section payloads, by tag:
//
//	spec(1)   = canonical Spec wire token, as raw UTF-8
//	info(2)   = string(name) string(rule) uvarint(props)
//	            f64bits(alpha) string(debiasErr)            ; "" = debiasable
//	meta(3)   = uvarint(n) (n+1)²·f64bits, row-major        ; the matrix
//	mle(4)    = uvarint(k) k·uvarint                        ; k = n+1
//	debias(5) = uvarint(k) k·f64bits                        ; k = n+1
//
// Unknown tags are skipped on decode (forward compatibility: a newer
// writer may append sections an old reader ignores), and Encode always
// emits known sections in ascending tag order, so encoding is
// deterministic: one mechanism, one byte sequence, one artifact hash.
// Truncation is always detectable — the parse is deterministic over a
// shared prefix, so any strict prefix of a valid artifact fails with an
// error matching io.ErrUnexpectedEOF (and ErrArtifactInvalid), never
// with silent success; the trailing CRC catches bit rot that keeps the
// frame structure intact.

// ErrArtifactInvalid marks artifact bytes that do not decode to a
// mechanism consistent with their spec: bad framing, a failed CRC, a
// matrix that is not column-stochastic, or an artifact for a different
// spec than the one it was presented for. Every decode and import
// failure wraps it.
var ErrArtifactInvalid = errors.New("service: invalid mechanism artifact")

// MaxArtifactBytes bounds how large an artifact a decoder (and the HTTP
// import route) will accept. The dominant section is the dense matrix:
// (MaxN+1)² float64s ≈ 134 MiB, so 256 MiB clears the largest legal
// artifact with room for the tables while still refusing absurd inputs.
const MaxArtifactBytes = 256 << 20

const artifactVersion = 1

var artifactMagic = [4]byte{'P', 'C', 'A', '1'}

// Artifact section tags. Values are part of the wire format.
const (
	artifactSecSpec   = 1
	artifactSecInfo   = 2
	artifactSecMatrix = 3
	artifactSecMLE    = 4
	artifactSecDebias = 5
)

// Artifact is the decoded (or to-be-encoded) persistent form of one
// built mechanism. It is plain data: Instantiate turns it back into
// serving tables, re-validating everything a hostile encoding could
// have forged.
type Artifact struct {
	// Spec is the canonical spec the mechanism was built for; its ID is
	// the artifact's identity in the store and the v2 API.
	Spec Spec
	// Name, Rule, Props and Alpha are the serving metadata the build
	// pipeline records: mechanism family, selection rule, guaranteed
	// §IV-A property closure, and the design privacy parameter.
	Name  string
	Rule  string
	Props core.PropertySet
	Alpha float64
	// Probs is the (N+1)² probability matrix, row-major.
	Probs []float64
	// MLE is the maximum-likelihood decode table, one entry per output.
	MLE []int
	// Debias holds the unbiased-estimator coefficients; nil when the
	// mechanism has none, in which case DebiasErr carries the reason.
	Debias    []float64
	DebiasErr string
}

// truncatedArtifact marks a decode that ran out of bytes mid-structure.
// It matches both ErrArtifactInvalid and io.ErrUnexpectedEOF, so
// callers can distinguish "cut short" (maybe a partial download) from
// "malformed" without string matching.
type truncatedArtifact struct{ detail string }

func (e *truncatedArtifact) Error() string {
	return "service: truncated mechanism artifact: " + e.detail
}

func (e *truncatedArtifact) Unwrap() []error {
	return []error{ErrArtifactInvalid, io.ErrUnexpectedEOF}
}

// Encode renders the artifact in its canonical byte form: known
// sections in ascending tag order, canonical spec token, trailing CRC.
// Encoding the same artifact always yields the same bytes, which is
// what makes the artifact hash (the HTTP ETag) stable across replicas.
func (a *Artifact) Encode() []byte {
	// Pre-size for the dominant matrix section plus slack for the rest.
	b := make([]byte, 0, len(a.Probs)*8+len(a.MLE)*2+len(a.Debias)*8+len(a.Name)+len(a.Rule)+len(a.DebiasErr)+128)
	b = append(b, artifactMagic[:]...)
	b = binary.AppendUvarint(b, artifactVersion)

	b = appendArtifactSection(b, artifactSecSpec, []byte(a.Spec.ID()))

	var info []byte
	info = appendArtifactString(info, a.Name)
	info = appendArtifactString(info, a.Rule)
	info = binary.AppendUvarint(info, uint64(a.Props))
	info = binary.LittleEndian.AppendUint64(info, math.Float64bits(a.Alpha))
	info = appendArtifactString(info, a.DebiasErr)
	b = appendArtifactSection(b, artifactSecInfo, info)

	matrix := make([]byte, 0, binary.MaxVarintLen64+len(a.Probs)*8)
	matrix = binary.AppendUvarint(matrix, uint64(a.Spec.N))
	for _, p := range a.Probs {
		matrix = binary.LittleEndian.AppendUint64(matrix, math.Float64bits(p))
	}
	b = appendArtifactSection(b, artifactSecMatrix, matrix)

	var mle []byte
	mle = binary.AppendUvarint(mle, uint64(len(a.MLE)))
	for _, v := range a.MLE {
		mle = binary.AppendUvarint(mle, uint64(v))
	}
	b = appendArtifactSection(b, artifactSecMLE, mle)

	if a.Debias != nil {
		debias := make([]byte, 0, binary.MaxVarintLen64+len(a.Debias)*8)
		debias = binary.AppendUvarint(debias, uint64(len(a.Debias)))
		for _, v := range a.Debias {
			debias = binary.LittleEndian.AppendUint64(debias, math.Float64bits(v))
		}
		b = appendArtifactSection(b, artifactSecDebias, debias)
	}

	b = binary.AppendUvarint(b, 0) // end marker
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func appendArtifactSection(b []byte, tag uint64, payload []byte) []byte {
	b = binary.AppendUvarint(b, tag)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

func appendArtifactString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// DecodeArtifact parses and structurally validates artifact bytes:
// framing, CRC, required sections, spec validity, table shapes and
// ranges. It does not re-verify the matrix itself — Instantiate does,
// through core's column-stochasticity check — so decoding stays cheap
// enough for store listings and negative-path handling. All errors wrap
// ErrArtifactInvalid; truncation additionally matches
// io.ErrUnexpectedEOF. Hostile length prefixes cannot force
// allocations beyond the input's own size.
func DecodeArtifact(data []byte) (*Artifact, error) {
	if len(data) > MaxArtifactBytes {
		return nil, fmt.Errorf("%w: %d bytes exceeds %d", ErrArtifactInvalid, len(data), MaxArtifactBytes)
	}
	d := artifactDecoder{buf: data}
	magic := d.take(4, "magic")
	if d.err == nil && [4]byte(magic) != artifactMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrArtifactInvalid, magic)
	}
	if v := d.uvarint("format version"); d.err == nil && v != artifactVersion {
		return nil, fmt.Errorf("%w: unsupported format version %d", ErrArtifactInvalid, v)
	}

	a := &Artifact{}
	var specTok string
	var matrixN int
	seen := map[uint64]bool{}
	for d.err == nil {
		tag := d.uvarint("section tag")
		if d.err != nil || tag == 0 {
			break
		}
		plen := d.uvarint("section length")
		payload := d.take(int(plen), "section payload")
		if d.err != nil {
			break
		}
		if seen[tag] {
			return nil, fmt.Errorf("%w: duplicate section tag %d", ErrArtifactInvalid, tag)
		}
		seen[tag] = true
		s := artifactDecoder{buf: payload, section: artifactSectionName(tag)}
		switch tag {
		case artifactSecSpec:
			specTok = string(s.take(len(s.buf), "spec token"))
		case artifactSecInfo:
			a.Name = s.string("name")
			a.Rule = s.string("rule")
			a.Props = core.PropertySet(s.uvarint("props"))
			a.Alpha = math.Float64frombits(s.uint64("alpha"))
			a.DebiasErr = s.string("debias error")
		case artifactSecMatrix:
			matrixN = s.count("n")
			a.Probs = s.floats((matrixN+1)*(matrixN+1), "matrix")
		case artifactSecMLE:
			a.MLE = s.ints("mle table")
		case artifactSecDebias:
			a.Debias = s.floats(s.count("debias length"), "debias table")
		default:
			// Unknown section: skip the payload (forward compatibility).
			s.take(len(s.buf), "skipped payload")
		}
		if err := s.finish(); err != nil {
			return nil, err
		}
	}
	if d.err == nil {
		crc := d.take(4, "checksum")
		switch {
		case d.err != nil:
		case len(d.buf) != 0:
			return nil, fmt.Errorf("%w: %d trailing bytes after checksum", ErrArtifactInvalid, len(d.buf))
		case binary.LittleEndian.Uint32(crc) != crc32.ChecksumIEEE(data[:len(data)-4]):
			return nil, fmt.Errorf("%w: checksum mismatch", ErrArtifactInvalid)
		}
	}
	if d.err != nil {
		return nil, d.err
	}

	// Cross-section structural validation.
	for _, req := range []struct {
		tag uint64
		ok  bool
	}{
		{artifactSecSpec, seen[artifactSecSpec]},
		{artifactSecInfo, seen[artifactSecInfo]},
		{artifactSecMatrix, seen[artifactSecMatrix]},
		{artifactSecMLE, seen[artifactSecMLE]},
	} {
		if !req.ok {
			return nil, fmt.Errorf("%w: missing %s section", ErrArtifactInvalid, artifactSectionName(req.tag))
		}
	}
	spec, err := ParseSpec(specTok)
	if err != nil {
		return nil, fmt.Errorf("%w: spec token %q: %v", ErrArtifactInvalid, specTok, err)
	}
	a.Spec = spec
	if specTok != spec.ID() {
		return nil, fmt.Errorf("%w: spec token %q is not canonical (want %q)", ErrArtifactInvalid, specTok, spec.ID())
	}
	if matrixN != spec.N {
		return nil, fmt.Errorf("%w: matrix is for n=%d, spec says n=%d", ErrArtifactInvalid, matrixN, spec.N)
	}
	if a.Props&^(core.AllProperties|core.OutputDP) != 0 {
		return nil, fmt.Errorf("%w: unknown property bits in %#x", ErrArtifactInvalid, uint(a.Props))
	}
	if math.IsNaN(a.Alpha) || a.Alpha < 0 || a.Alpha >= 1 {
		return nil, fmt.Errorf("%w: alpha=%v, want in [0, 1)", ErrArtifactInvalid, a.Alpha)
	}
	if len(a.MLE) != spec.N+1 {
		return nil, fmt.Errorf("%w: MLE table has %d entries for n=%d, want %d", ErrArtifactInvalid, len(a.MLE), spec.N, spec.N+1)
	}
	for i, v := range a.MLE {
		if v < 0 || v > spec.N {
			return nil, fmt.Errorf("%w: MLE[%d]=%d out of range [0, %d]", ErrArtifactInvalid, i, v, spec.N)
		}
	}
	if a.DebiasErr == "" {
		if len(a.Debias) != spec.N+1 {
			return nil, fmt.Errorf("%w: debias table has %d entries for n=%d, want %d", ErrArtifactInvalid, len(a.Debias), spec.N, spec.N+1)
		}
	} else if a.Debias != nil {
		return nil, fmt.Errorf("%w: debias table present alongside debias error %q", ErrArtifactInvalid, a.DebiasErr)
	}
	return a, nil
}

// Instantiate turns a decoded artifact back into serving tables,
// performing the expensive re-verification DecodeArtifact skips: the
// matrix must be a valid column-stochastic mechanism (core.New's
// check), and the sampler tables are rebuilt from it. A forged or
// bit-rotted artifact fails here with ErrArtifactInvalid rather than
// ever serving a wrong distribution.
func (a *Artifact) Instantiate() (*core.Mechanism, *core.Sampler, error) {
	m, err := core.FromProbsRowMajor(a.Name, a.Spec.N, a.Alpha, a.Probs)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrArtifactInvalid, err)
	}
	sampler, err := core.NewSampler(m)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrArtifactInvalid, err)
	}
	return m, sampler, nil
}

// result assembles the buildResult an instantiated artifact settles an
// entry with — the exact shape runBuild produces from a live solve.
func (a *Artifact) result() (buildResult, error) {
	m, sampler, err := a.Instantiate()
	if err != nil {
		return buildResult{err: err}, err
	}
	res := buildResult{
		mech: m, sampler: sampler,
		mle: a.MLE, rule: a.Rule, props: a.Props,
	}
	if a.DebiasErr != "" {
		res.debiasErr = errors.New(a.DebiasErr)
	} else {
		res.debias = a.Debias
	}
	return res, nil
}

// artifactFromEntry snapshots a ready entry as its persistent form. The
// entry's serving tables are immutable once ready, so this needs no
// locking; the matrix is copied out.
func artifactFromEntry(e *Entry) *Artifact {
	a := &Artifact{
		Spec:  e.spec,
		Name:  e.mech.Name(),
		Rule:  e.rule,
		Props: e.props,
		Alpha: e.mech.Alpha(),
		Probs: e.mech.AppendProbsRowMajor(make([]float64, 0, (e.spec.N+1)*(e.spec.N+1))),
		MLE:   e.mle,
	}
	if e.debiasErr != nil {
		a.DebiasErr = e.debiasErr.Error()
	} else {
		a.Debias = e.debias
	}
	return a
}

func artifactSectionName(tag uint64) string {
	switch tag {
	case artifactSecSpec:
		return "spec"
	case artifactSecInfo:
		return "info"
	case artifactSecMatrix:
		return "matrix"
	case artifactSecMLE:
		return "mle"
	case artifactSecDebias:
		return "debias"
	default:
		return fmt.Sprintf("tag-%d", tag)
	}
}

// artifactDecoder walks artifact bytes with sticky errors, like the
// query codec's decoder, plus one classification the store tier needs:
// running out of bytes at the outer stream level is truncation
// (io.ErrUnexpectedEOF — the file was cut short), while running out
// inside an already-length-framed section is plain invalidity (the
// frame lied about its own contents).
type artifactDecoder struct {
	buf     []byte
	err     error
	section string // "" = outer stream
}

func (d *artifactDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrArtifactInvalid}, args...)...)
	}
}

func (d *artifactDecoder) short(what string) {
	if d.err != nil {
		return
	}
	if d.section == "" {
		d.err = &truncatedArtifact{what}
	} else {
		d.fail("%s section truncated at %s", d.section, what)
	}
}

func (d *artifactDecoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf) {
		d.short(what)
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *artifactDecoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n == 0 {
		d.short(what)
		return 0
	}
	if n < 0 {
		d.fail("%s varint overflows", what)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *artifactDecoder) uint64(what string) uint64 {
	b := d.take(8, what)
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *artifactDecoder) count(what string) int {
	v := d.uvarint(what)
	if v > math.MaxInt32 {
		d.fail("%s %d out of range", what, v)
		return 0
	}
	return int(v)
}

func (d *artifactDecoder) string(what string) string {
	n := d.uvarint(what)
	b := d.take(int(n), what)
	if d.err != nil {
		return ""
	}
	return string(b)
}

// floats decodes k 8-byte float64s. The remaining payload bounds k
// before allocating, so a hostile length cannot force a huge buffer.
func (d *artifactDecoder) floats(k int, what string) []float64 {
	if d.err != nil {
		return nil
	}
	if k < 0 || k > len(d.buf)/8 {
		d.short(what)
		return nil
	}
	out := make([]float64, k)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.buf[i*8:]))
	}
	d.buf = d.buf[k*8:]
	return out
}

// ints decodes a length-prefixed uvarint vector, bounding the declared
// length by the remaining payload (each entry is at least one byte).
func (d *artifactDecoder) ints(what string) []int {
	k := d.uvarint(what)
	if d.err != nil {
		return nil
	}
	if k > uint64(len(d.buf)) {
		d.short(what)
		return nil
	}
	out := make([]int, 0, k)
	for i := uint64(0); i < k; i++ {
		out = append(out, d.count(what))
	}
	if d.err != nil {
		return nil
	}
	return out
}

// finish reports the sticky error, or complains about unconsumed
// section bytes (outer-stream decoders never call it).
func (d *artifactDecoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes in %s section", ErrArtifactInvalid, len(d.buf), d.section)
	}
	return nil
}
