package graph

// This file implements the .fgr on-disk graph format: the flat CSR arrays of
// a Graph serialized verbatim (little-endian int32 arrays) behind a
// checksummed section table, so that loading is a single mmap plus an O(V+E)
// validation pass instead of a parse — and multiple worker processes mapping
// the same file share one physical copy of the adjacency. See DESIGN.md §13
// for the layout and the ownership/immutability rules.
//
// Layout:
//
//	header (64 bytes)
//	  [0:4)   magic "FGR1"
//	  [4:8)   format version (uint32, currently 1)
//	  [8:12)  flags (uint32; bit 0: keyword sections present)
//	  [12:16) section count (uint32)
//	  [16:24) NumVertices (int64)
//	  [24:32) NumEdges (int64)
//	  [32:40) NumLabels (int64)
//	  [40:48) total file size (int64, exact)
//	  [48:64) reserved, zero
//	section table (count × 24 bytes, ascending section id)
//	  [0:4)   section id (uint32)
//	  [4:8)   CRC-32 (IEEE) of the section payload (uint32)
//	  [8:16)  payload offset from file start (int64, 8-byte aligned)
//	  [16:24) payload length in bytes (int64)
//	payloads (8-byte aligned, zero-padded between)
//
// Every array section is the in-memory array written as little-endian 4-byte
// words. The dictionary section is a string table (uvarint count, then per
// string uvarint length + bytes, in Label order); the name section is the
// raw dataset name. A decoder validates bounds, checksums, and the full CSR
// loader contract before publishing a Graph, and returns *FormatError —
// never panics — on any malformed input.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"unsafe"
)

// FGRVersion is the current .fgr format version.
const FGRVersion = 1

const (
	fgrMagic       = "FGR1"
	fgrHeaderSize  = 64
	fgrSectionSize = 24
	fgrFlagKW      = 1 << 0
	fgrMaxSections = 64
)

// Section identifiers. Array sections alias the mapping zero-copy; dict and
// name are decoded at load time.
const (
	secAdjOff  = 1
	secAdjV    = 2
	secAdjE    = 3
	secESrc    = 4
	secEDst    = 5
	secVLabOff = 6
	secVLab    = 7
	secELabOff = 8
	secELab    = 9
	secVKwOff  = 10
	secVKw     = 11
	secEKwOff  = 12
	secEKw     = 13
	secDict    = 14
	secName    = 15
)

var secNames = map[uint32]string{
	secAdjOff: "adjOff", secAdjV: "adjV", secAdjE: "adjE",
	secESrc: "esrc", secEDst: "edst",
	secVLabOff: "vlabOff", secVLab: "vlab", secELabOff: "elabOff", secELab: "elab",
	secVKwOff: "vkwOff", secVKw: "vkw", secEKwOff: "ekwOff", secEKw: "ekw",
	secDict: "dict", secName: "name",
}

// FormatError describes a malformed or corrupt .fgr input. Every decode
// failure is one of these: loaders must reject bad bytes with a typed error,
// never panic or read past the mapping.
type FormatError struct {
	Path    string // file path, "" for in-memory decodes
	Section string // offending section name, or "header"
	Msg     string
}

func (e *FormatError) Error() string {
	where := "fgr"
	if e.Path != "" {
		where = e.Path
	}
	return fmt.Sprintf("graph: %s: %s: %s", where, e.Section, e.Msg)
}

func formatErr(section, format string, args ...any) error {
	return &FormatError{Section: section, Msg: fmt.Sprintf(format, args...)}
}

// hostLittleEndian gates the zero-copy []byte→[]int32 reinterpretation: the
// format is little-endian on disk, so big-endian hosts take the copying path.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// appendWords serializes an int32-kind array as little-endian words.
func appendWords[T ~int32](dst []byte, xs []T) []byte {
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
	}
	return dst
}

// appendOffsets serializes the offsets of a label family over count
// elements: off as it is, or, for a payload-only family (nil off), the
// offsets the format still carries — the identity when every element has one
// value, zeros when none has any.
func appendOffsets(off []int32, count, payload int) []byte {
	if off != nil {
		return appendWords(nil, off)
	}
	stride := min(payload, 1)
	dst := make([]byte, 0, 4*(count+1))
	for i := 0; i <= count; i++ {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(i*stride))
	}
	return dst
}

// appendPayload serializes the payload of a label family over count
// elements: packed as it is, or a payload-only family's one shared label
// once per element.
func appendPayload(packed []Label, off []int32, count int) []byte {
	if off != nil || len(packed) != 1 {
		return appendWords(nil, packed)
	}
	dst := make([]byte, 0, 4*count)
	for range count {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(packed[0]))
	}
	return dst
}

// viewWords reinterprets a validated payload as an int32-kind array. On a
// little-endian host with 4-byte alignment (guaranteed for mapped files by
// the 8-aligned section offsets) this is zero-copy; otherwise it decodes
// into a fresh array.
func viewWords[T ~int32](b []byte) []T {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// encodeDict serializes the dictionary as a string table in Label order.
func encodeDict(d *Dictionary) []byte {
	n := d.Len()
	out := binary.AppendUvarint(nil, uint64(n))
	for l := 0; l < n; l++ {
		s := d.Name(Label(l))
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	return out
}

// decodeDict parses a string table into a Dictionary.
func decodeDict(b []byte) (*Dictionary, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, formatErr("dict", "bad string count")
	}
	if n > uint64(len(b)) { // each string costs at least one length byte
		return nil, formatErr("dict", "string count %d exceeds section size %d", n, len(b))
	}
	b = b[sz:]
	d := NewDictionary()
	for i := uint64(0); i < n; i++ {
		l, sz := binary.Uvarint(b)
		if sz <= 0 || l > uint64(len(b)-sz) {
			return nil, formatErr("dict", "truncated string %d", i)
		}
		s := string(b[sz : sz+int(l)])
		b = b[sz+int(l):]
		if got := d.Intern(s); got != Label(i) {
			return nil, formatErr("dict", "duplicate string %q", s)
		}
	}
	if len(b) != 0 {
		return nil, formatErr("dict", "%d trailing bytes", len(b))
	}
	return d, nil
}

// EncodeFGR serializes g into the .fgr format. The encoding is canonical:
// the same graph always yields the same bytes (the basis of the
// build→write→load→write byte-identity property). The format carries the
// edge-id index, so a built graph indexes it here if nothing has yet.
func EncodeFGR(g *Graph) []byte {
	type section struct {
		id      uint32
		payload []byte
	}
	secs := []section{
		{secAdjOff, appendWords(nil, g.adjOff)},
		{secAdjV, appendWords(nil, g.adjV)},
		{secAdjE, appendWords(nil, g.edgeIDs())},
		{secESrc, appendWords(nil, g.esrc)},
		{secEDst, appendWords(nil, g.edst)},
		{secVLabOff, appendOffsets(g.vlabOff, g.nv, len(g.vlab))},
		{secVLab, appendPayload(g.vlab, g.vlabOff, g.nv)},
		{secELabOff, appendOffsets(g.elabOff, len(g.esrc), len(g.elab))},
		{secELab, appendPayload(g.elab, g.elabOff, len(g.esrc))},
	}
	flags := uint32(0)
	if g.hasKW {
		flags |= fgrFlagKW
		secs = append(secs,
			section{secVKwOff, appendOffsets(g.vkwOff, g.nv, len(g.vkw))},
			section{secVKw, appendPayload(g.vkw, g.vkwOff, g.nv)},
			section{secEKwOff, appendOffsets(g.ekwOff, len(g.esrc), len(g.ekw))},
			section{secEKw, appendPayload(g.ekw, g.ekwOff, len(g.esrc))})
	}
	secs = append(secs,
		section{secDict, encodeDict(g.dict)},
		section{secName, []byte(g.name)})

	// Lay out payloads after the table, 8-aligned.
	off := int64(fgrHeaderSize + len(secs)*fgrSectionSize)
	off = (off + 7) &^ 7
	offs := make([]int64, len(secs))
	for i, s := range secs {
		offs[i] = off
		off = (off + int64(len(s.payload)) + 7) &^ 7
	}
	total := offs[len(secs)-1] + int64(len(secs[len(secs)-1].payload))

	out := make([]byte, 0, total)
	out = append(out, fgrMagic...)
	out = binary.LittleEndian.AppendUint32(out, FGRVersion)
	out = binary.LittleEndian.AppendUint32(out, flags)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(secs)))
	out = binary.LittleEndian.AppendUint64(out, uint64(g.NumVertices()))
	out = binary.LittleEndian.AppendUint64(out, uint64(g.NumEdges()))
	out = binary.LittleEndian.AppendUint64(out, uint64(g.numLabel))
	out = binary.LittleEndian.AppendUint64(out, uint64(total))
	out = append(out, make([]byte, fgrHeaderSize-len(out))...)
	for i, s := range secs {
		out = binary.LittleEndian.AppendUint32(out, s.id)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(s.payload))
		out = binary.LittleEndian.AppendUint64(out, uint64(offs[i]))
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.payload)))
	}
	for i, s := range secs {
		out = append(out, make([]byte, offs[i]-int64(len(out)))...)
		out = append(out, s.payload...)
	}
	return out
}

// WriteFGR writes g in the .fgr format.
func WriteFGR(w io.Writer, g *Graph) error {
	_, err := w.Write(EncodeFGR(g))
	return err
}

// SaveFGR writes g to path in the .fgr format, atomically (write to a
// temporary file in the same directory, then rename): a crashed convert
// never leaves a torn file workers could map.
func SaveFGR(path string, g *Graph) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".fgr-tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteFGR(tmp, g); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// fgrSection is one parsed section-table entry.
type fgrSection struct {
	id  uint32
	crc uint32
	off int64
	n   int64
}

// DecodeFGR parses .fgr bytes into a Graph whose arrays alias data (on
// little-endian hosts): the caller keeps data alive and unmodified for the
// graph's lifetime. All bounds, checksums, and the CSR loader contract
// (monotone offsets, sorted adjacency runs, in-range ids, consistent
// endpoints, sorted+deduplicated label sets) are validated up front; any
// violation returns a *FormatError and never a panic or an out-of-bounds
// read.
func DecodeFGR(data []byte) (*Graph, error) {
	if len(data) < fgrHeaderSize {
		return nil, formatErr("header", "file too small: %d bytes", len(data))
	}
	if string(data[:4]) != fgrMagic {
		return nil, formatErr("header", "bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != FGRVersion {
		return nil, formatErr("header", "unsupported version %d (want %d)", v, FGRVersion)
	}
	flags := binary.LittleEndian.Uint32(data[8:])
	nsec := binary.LittleEndian.Uint32(data[12:])
	numV := int64(binary.LittleEndian.Uint64(data[16:]))
	numE := int64(binary.LittleEndian.Uint64(data[24:]))
	numLabel := int64(binary.LittleEndian.Uint64(data[32:]))
	fileSize := int64(binary.LittleEndian.Uint64(data[40:]))
	if fileSize != int64(len(data)) {
		return nil, formatErr("header", "file size %d does not match header %d", len(data), fileSize)
	}
	if flags&^uint32(fgrFlagKW) != 0 {
		return nil, formatErr("header", "unknown flags %#x", flags)
	}
	if nsec == 0 || nsec > fgrMaxSections {
		return nil, formatErr("header", "implausible section count %d", nsec)
	}
	if numV < 0 || numV >= math.MaxInt32 || numE < 0 || numE > (math.MaxInt32-1)/2 {
		return nil, formatErr("header", "implausible sizes |V|=%d |E|=%d", numV, numE)
	}
	if numLabel < 0 || numLabel > math.MaxInt32 {
		return nil, formatErr("header", "implausible label count %d", numLabel)
	}
	tableEnd := int64(fgrHeaderSize) + int64(nsec)*fgrSectionSize
	if tableEnd > int64(len(data)) {
		return nil, formatErr("header", "section table overruns file")
	}

	// Parse and bounds-check the table: ascending ids, non-overlapping
	// 8-aligned payloads in table order.
	bySec := map[uint32]fgrSection{}
	prevID := uint32(0)
	minOff := (tableEnd + 7) &^ 7
	for i := uint32(0); i < nsec; i++ {
		row := data[int64(fgrHeaderSize)+int64(i)*fgrSectionSize:]
		s := fgrSection{
			id:  binary.LittleEndian.Uint32(row),
			crc: binary.LittleEndian.Uint32(row[4:]),
			off: int64(binary.LittleEndian.Uint64(row[8:])),
			n:   int64(binary.LittleEndian.Uint64(row[16:])),
		}
		name := secNames[s.id]
		if name == "" {
			return nil, formatErr("header", "unknown section id %d", s.id)
		}
		if s.id <= prevID {
			return nil, formatErr(name, "section ids not ascending")
		}
		prevID = s.id
		if s.off%8 != 0 || s.off < minOff || s.n < 0 || s.n > int64(len(data))-s.off {
			return nil, formatErr(name, "section bounds [%d,+%d) invalid in %d-byte file", s.off, s.n, len(data))
		}
		minOff = s.off + s.n
		if crc := crc32.ChecksumIEEE(data[s.off : s.off+s.n]); crc != s.crc {
			return nil, formatErr(name, "checksum mismatch: file says %#x, payload is %#x", s.crc, crc)
		}
		bySec[s.id] = s
	}

	// payload fetches a required section's bytes, checking its exact length.
	payload := func(id uint32, wantWords int64) ([]byte, error) {
		s, ok := bySec[id]
		if !ok {
			return nil, formatErr(secNames[id], "required section missing")
		}
		if wantWords >= 0 && s.n != 4*wantWords {
			return nil, formatErr(secNames[id], "payload is %d bytes, want %d words", s.n, wantWords)
		}
		return data[s.off : s.off+s.n], nil
	}
	g := &Graph{numLabel: int(numLabel)}
	var err error
	var b []byte
	if b, err = payload(secAdjOff, numV+1); err != nil {
		return nil, err
	}
	g.adjOff = viewWords[int32](b)
	if b, err = payload(secAdjV, 2*numE); err != nil {
		return nil, err
	}
	g.adjV = viewWords[VertexID](b)
	if b, err = payload(secAdjE, 2*numE); err != nil {
		return nil, err
	}
	g.adjE = indexed(viewWords[EdgeID](b))
	if b, err = payload(secESrc, numE); err != nil {
		return nil, err
	}
	g.esrc = viewWords[VertexID](b)
	if b, err = payload(secEDst, numE); err != nil {
		return nil, err
	}
	g.edst = viewWords[VertexID](b)
	if b, err = payload(secVLabOff, numV+1); err != nil {
		return nil, err
	}
	g.vlabOff = viewWords[int32](b)
	if b, err = payload(secVLab, -1); err != nil {
		return nil, err
	}
	g.vlab = viewWords[Label](b)
	if b, err = payload(secELabOff, numE+1); err != nil {
		return nil, err
	}
	g.elabOff = viewWords[int32](b)
	if b, err = payload(secELab, -1); err != nil {
		return nil, err
	}
	g.elab = viewWords[Label](b)
	if g.hasKW = flags&fgrFlagKW != 0; g.hasKW {
		if b, err = payload(secVKwOff, numV+1); err != nil {
			return nil, err
		}
		g.vkwOff = viewWords[int32](b)
		if b, err = payload(secVKw, -1); err != nil {
			return nil, err
		}
		g.vkw = viewWords[Label](b)
		if b, err = payload(secEKwOff, numE+1); err != nil {
			return nil, err
		}
		g.ekwOff = viewWords[int32](b)
		if b, err = payload(secEKw, -1); err != nil {
			return nil, err
		}
		g.ekw = viewWords[Label](b)
	} else {
		for _, id := range []uint32{secVKwOff, secVKw, secEKwOff, secEKw} {
			if _, ok := bySec[id]; ok {
				return nil, formatErr(secNames[id], "keyword section present without keyword flag")
			}
		}
	}
	if b, err = payload(secDict, -1); err != nil {
		return nil, err
	}
	if g.dict, err = decodeDict(b); err != nil {
		return nil, err
	}
	if b, err = payload(secName, -1); err != nil {
		return nil, err
	}
	g.name = string(b)

	if err := validateCSR(g, numV, numE); err != nil {
		return nil, err
	}
	g.finalize()
	return g, nil
}

// validateCSR enforces the CSR loader contract on decoded arrays. Everything
// downstream — binary searches in EdgeBetween, the merge/galloping
// intersection kernels, Degree arithmetic — assumes these invariants, so a
// mapped graph is fully checked before it is published.
func validateCSR(g *Graph, numV, numE int64) error {
	if _, err := checkOffsets("adjOff", g.adjOff, int64(len(g.adjV))); err != nil {
		return err
	}
	for i := int64(0); i < numE; i++ {
		s, d := g.esrc[i], g.edst[i]
		if s < 0 || int64(s) >= numV || d < 0 || int64(d) >= numV || s >= d {
			return formatErr("esrc", "edge %d endpoints (%d,%d) invalid for |V|=%d", i, s, d, numV)
		}
	}
	// Adjacency: in-range ids, runs strictly sorted by (neighbor, edge),
	// every incidence consistent with the edge's endpoints, and every edge
	// appearing exactly twice.
	seen := make([]uint8, numE)
	adjE := g.adjE.ids
	for v := int64(0); v < numV; v++ {
		lo, hi := g.adjOff[v], g.adjOff[v+1]
		for i := lo; i < hi; i++ {
			w, e := g.adjV[i], adjE[i]
			if w < 0 || int64(w) >= numV || e < 0 || int64(e) >= numE {
				return formatErr("adjV", "incidence %d of vertex %d out of range (neighbor %d, edge %d)", i-lo, v, w, e)
			}
			if i > lo && (g.adjV[i-1] > w || (g.adjV[i-1] == w && adjE[i-1] >= e)) {
				return formatErr("adjV", "adjacency run of vertex %d not sorted by (neighbor, edge)", v)
			}
			s, d := g.esrc[e], g.edst[e]
			if !(s == VertexID(v) && d == w) && !(s == w && d == VertexID(v)) {
				return formatErr("adjE", "incidence (%d,%d) disagrees with edge %d = (%d,%d)", v, w, e, s, d)
			}
			if seen[e] == 2 {
				return formatErr("adjE", "edge %d appears more than twice in the adjacency", e)
			}
			seen[e]++
		}
	}
	for e, n := range seen {
		if n != 2 {
			return formatErr("adjE", "edge %d appears %d times in the adjacency, want 2", e, n)
		}
	}
	families := []struct {
		name   string
		off    *[]int32
		packed *[]Label
	}{{"vlab", &g.vlabOff, &g.vlab}, {"elab", &g.elabOff, &g.elab}, {"vkw", &g.vkwOff, &g.vkw}, {"ekw", &g.ekwOff, &g.ekw}}
	if !g.hasKW {
		families = families[:2]
	}
	for _, f := range families {
		plain, err := checkOffsets(f.name+"Off", *f.off, int64(len(*f.packed)))
		if err != nil {
			return err
		}
		if plain { // the in-memory form of such a family (graph.go)
			*f.off, *f.packed = nil, shareOne(*f.packed)
		} else if err := checkSortedRuns(f.name, *f.off, *f.packed); err != nil {
			return err
		}
	}
	// The label census must match the header so NumLabels stays truthful.
	if n := countLabels(g.vlab, g.elab); n != g.numLabel {
		return formatErr("header", "label count %d does not match %d distinct labels", g.numLabel, n)
	}
	return nil
}

// checkOffsets validates one offsets array: starts at zero, monotone
// nondecreasing, ends exactly at the payload length. plain reports offsets
// that say nothing the payload does not: the identity, or all zero.
func checkOffsets(name string, off []int32, payloadLen int64) (plain bool, err error) {
	if len(off) == 0 || off[0] != 0 {
		return false, formatErr(name, "offsets must start at 0")
	}
	identity := true
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return false, formatErr(name, "offsets decrease at %d", i)
		}
		identity = identity && off[i] == int32(i)
	}
	if int64(off[len(off)-1]) != payloadLen {
		return false, formatErr(name, "offsets end at %d, payload has %d entries", off[len(off)-1], payloadLen)
	}
	return identity || payloadLen == 0, nil
}

// checkSortedRuns validates that every run of a packed label array is
// strictly increasing (sorted and deduplicated, the normLabels contract).
func checkSortedRuns(name string, off []int32, packed []Label) error {
	for i := 1; i < len(off); i++ {
		for j := off[i-1] + 1; j < off[i]; j++ {
			if packed[j-1] >= packed[j] {
				return formatErr(name, "label run %d not strictly sorted", i-1)
			}
		}
	}
	return nil
}

// LoadFGR maps the .fgr file at path and returns a Graph whose arrays alias
// the mapping: load cost is one mmap plus the validation pass, resident
// memory is shared between every process mapping the same file, and pages
// are faulted in on demand. Close the graph to release the mapping. On any
// validation failure the mapping is released and a *FormatError carrying the
// path is returned.
func LoadFGR(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	data, unmap, err := mmapFile(f, info.Size())
	f.Close() // the mapping (or fallback copy) survives the descriptor
	if err != nil {
		return nil, fmt.Errorf("graph: mapping %s: %w", path, err)
	}
	g, err := DecodeFGR(data)
	if err != nil {
		unmap()
		if fe, ok := err.(*FormatError); ok {
			fe.Path = path
		}
		return nil, err
	}
	g.unmap = unmap
	return g, nil
}
