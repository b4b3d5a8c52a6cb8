package gcm

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Checkpointing: a tile's full prognostic state (including the
// Adams-Bashforth history, so a restart continues the integration
// bit-for-bit) serialized to a compact binary stream.  Long climate
// integrations are restart-driven in practice — the paper's century
// runs would span many job submissions even on a dedicated cluster.

// checkpointMagic identifies the stream format.
const checkpointMagic = 0x48594144 // "HYAD"

// checkpointVersion is bumped on incompatible layout changes.
const checkpointVersion = 1

// headerWords is the length of a tile stream's header in 64-bit words.
const headerWords = 8

// Checkpoint writes the tile's state to w.
func (m *Model) Checkpoint(w io.Writer) error {
	return m.checkpointTo(newEncoder(w))
}

// checkpointTo writes the tile's part of a stream through e.
func (m *Model) checkpointTo(e *encoder) error {
	h := [headerWords]uint64{
		checkpointMagic, checkpointVersion,
		uint64(m.Cfg.Grid.NX), uint64(m.Cfg.Grid.NY), uint64(m.Cfg.Grid.NZ),
		uint64(m.EP.Rank()), uint64(m.Steps), uint64(m.S.ABCursor()),
	}
	if err := e.words(h[:]...); err != nil {
		return fmt.Errorf("gcm: checkpoint header: %w", err)
	}
	return e.sections(m.checkpointSections())
}

// checkpointLen is the length of the stream Checkpoint writes.
func (m *Model) checkpointLen() int {
	return 8*headerWords + sectionsLen(m.checkpointSections())
}

// Restore loads a checkpoint written by a model with the same
// configuration and rank, replacing the state in place.  A stream that
// fails to parse leaves the model untouched.
func (m *Model) Restore(r io.Reader) error {
	st, err := m.stage(r)
	if err != nil {
		return err
	}
	m.adopt(st)
	return nil
}

// RestoreWhole restores j — a *Model or a *Coupled — from r and then
// requires r to be at its end: bytes after the last section are an
// error, reported once the sections before them have been loaded.
func RestoreWhole(j interface{ Restore(io.Reader) error }, r io.Reader) error {
	if err := j.Restore(r); err != nil {
		return err
	}
	n, err := io.Copy(io.Discard, r)
	if err != nil {
		return fmt.Errorf("gcm: after the last checkpoint section: %w", err)
	}
	if n != 0 {
		return fmt.Errorf("gcm: %d bytes after the last checkpoint section", n)
	}
	return nil
}

// staged is the tile's part of a stream, parsed but not yet adopted.
type staged struct {
	secs          []checkpointSection
	raw           [][]byte
	steps, cursor int
}

// stage parses the tile's part of a stream without touching the model.
func (m *Model) stage(r io.Reader) (staged, error) {
	var h [headerWords]uint64
	if err := binary.Read(r, binary.LittleEndian, &h); err != nil {
		return staged{}, fmt.Errorf("gcm: checkpoint header: %w", err)
	}
	if h[0] != checkpointMagic {
		return staged{}, fmt.Errorf("gcm: checkpoint header: magic %#x, not a checkpoint stream", h[0])
	}
	if h[1] != checkpointVersion {
		return staged{}, fmt.Errorf("gcm: checkpoint header: version %d, want %d", h[1], checkpointVersion)
	}
	if int(h[2]) != m.Cfg.Grid.NX || int(h[3]) != m.Cfg.Grid.NY || int(h[4]) != m.Cfg.Grid.NZ {
		return staged{}, fmt.Errorf("gcm: checkpoint header: grid %dx%dx%d does not match model %dx%dx%d",
			h[2], h[3], h[4], m.Cfg.Grid.NX, m.Cfg.Grid.NY, m.Cfg.Grid.NZ)
	}
	if int(h[5]) != m.EP.Rank() {
		return staged{}, fmt.Errorf("gcm: checkpoint header: rank %d restored on rank %d", h[5], m.EP.Rank())
	}
	if h[6] > math.MaxInt32 || h[7] > 1 {
		return staged{}, fmt.Errorf("gcm: checkpoint header: step count %d, AB cursor %d", h[6], h[7])
	}
	secs := m.checkpointSections()
	raw, err := readSections(r, secs)
	if err != nil {
		return staged{}, err
	}
	return staged{secs, raw, int(h[6]), int(h[7])}, nil
}

// adopt loads what stage read into the model.
func (m *Model) adopt(st staged) {
	loadSections(st.secs, st.raw)
	m.Steps = st.steps
	m.S.SetABCursor(st.cursor, m.Steps > 0)
	// Halos are not stored; bring them current so the next step sees a
	// consistent overlap region.  A header-validation error (including
	// the rank check) aborts the whole restart; ranks cannot diverge
	// into the exchange.
	m.exchangeState()
}

// checkpointSection names one array of the stream so a read or write
// failure reports exactly which part of the state it lost.
type checkpointSection struct {
	name string
	data []float64
}

// checkpointSections lists every array a bit-exact restart needs, in
// stream order.
func (m *Model) checkpointSections() []checkpointSection {
	s := m.S
	secs := []checkpointSection{
		{"U", s.U.Raw()}, {"V", s.V.Raw()}, {"W", s.W.Raw()},
		{"Theta", s.Theta.Raw()}, {"Salt", s.Salt.Raw()}, {"Phy", s.Phy.Raw()},
	}
	for i, f := range s.ABBuffers() {
		secs = append(secs, checkpointSection{fmt.Sprintf("AB%d", i), f.Raw()})
	}
	return append(secs, checkpointSection{"Ps", s.Ps.Raw()})
}

func sectionsLen(secs []checkpointSection) int {
	n := 0
	for _, sec := range secs {
		n += 8 * len(sec.data)
	}
	return n
}

// readSections reads the raw bytes of the stream's next sections.  The
// live arrays change only in loadSections, once the whole stream has
// parsed, so a truncated or mismatched stream never half-loads a model.
func readSections(r io.Reader, secs []checkpointSection) ([][]byte, error) {
	raw := make([][]byte, len(secs))
	for i, sec := range secs {
		raw[i] = make([]byte, 8*len(sec.data))
		if _, err := io.ReadFull(r, raw[i]); err != nil {
			return nil, fmt.Errorf("gcm: restore section %s: %w", sec.name, err)
		}
	}
	return raw, nil
}

func loadSections(secs []checkpointSection, raw [][]byte) {
	for i, sec := range secs {
		for k := range sec.data {
			sec.data[k] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i][8*k:]))
		}
	}
}

// chunkBytes is the size of the one buffer a checkpoint is encoded
// through: no Write the destination sees is longer.
const chunkBytes = 4 << 10

// encoder streams a checkpoint to w through one chunk buffer.  Each
// part of the stream — the header, a section, the coupled flags — is
// flushed when it ends, so a failed Write carried bytes of the part
// its error names.
type encoder struct {
	w   io.Writer
	buf []byte
}

func newEncoder(w io.Writer) *encoder {
	return &encoder{w: w, buf: make([]byte, 0, chunkBytes)}
}

// words writes a part of a few words; it must fit in one chunk.
func (e *encoder) words(vals ...uint64) error {
	for _, v := range vals {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	}
	return e.flush()
}

// sections writes each section as a part of its own.
func (e *encoder) sections(secs []checkpointSection) error {
	for _, sec := range secs {
		if err := e.floats(sec.data); err != nil {
			return fmt.Errorf("gcm: checkpoint section %s: %w", sec.name, err)
		}
	}
	return nil
}

func (e *encoder) floats(data []float64) error {
	for len(data) > 0 {
		n := min(len(data), (cap(e.buf)-len(e.buf))/8)
		b := e.buf[len(e.buf) : len(e.buf)+8*n]
		for i, v := range data[:n] {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		e.buf, data = e.buf[:len(e.buf)+8*n], data[n:]
		if len(data) > 0 {
			if err := e.flush(); err != nil {
				return err
			}
		}
	}
	return e.flush()
}

func (e *encoder) flush() error {
	if len(e.buf) == 0 {
		return nil
	}
	n, err := e.w.Write(e.buf)
	if err == nil && n < len(e.buf) {
		err = io.ErrShortWrite
	}
	e.buf = e.buf[:0]
	return err
}
