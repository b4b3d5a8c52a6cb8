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

// Checkpoint writes the tile's state to w.
func (m *Model) Checkpoint(w io.Writer) error {
	h := [8]uint64{
		checkpointMagic, checkpointVersion,
		uint64(m.Cfg.Grid.NX), uint64(m.Cfg.Grid.NY), uint64(m.Cfg.Grid.NZ),
		uint64(m.EP.Rank()), uint64(m.Steps), uint64(m.S.ABCursor()),
	}
	if err := binary.Write(w, binary.LittleEndian, h); err != nil {
		return fmt.Errorf("gcm: checkpoint header: %w", err)
	}
	return writeSections(w, m.checkpointSections())
}

// Restore loads a checkpoint written by a model with the same
// configuration and rank, replacing the state in place.  A stream that
// fails to parse leaves the model untouched.
func (m *Model) Restore(r io.Reader) error {
	adopt, err := m.stage(r)
	if err != nil {
		return err
	}
	adopt()
	return nil
}

// stage parses the tile's part of a stream without touching the model
// and returns the function that adopts what it read.
func (m *Model) stage(r io.Reader) (adopt func(), err error) {
	var h [8]uint64
	if err := binary.Read(r, binary.LittleEndian, &h); err != nil {
		return nil, fmt.Errorf("gcm: checkpoint header: %w", err)
	}
	if h[0] != checkpointMagic {
		return nil, fmt.Errorf("gcm: not a checkpoint stream")
	}
	if h[1] != checkpointVersion {
		return nil, fmt.Errorf("gcm: checkpoint version %d, want %d", h[1], checkpointVersion)
	}
	if int(h[2]) != m.Cfg.Grid.NX || int(h[3]) != m.Cfg.Grid.NY || int(h[4]) != m.Cfg.Grid.NZ {
		return nil, fmt.Errorf("gcm: checkpoint grid %dx%dx%d does not match model %dx%dx%d",
			h[2], h[3], h[4], m.Cfg.Grid.NX, m.Cfg.Grid.NY, m.Cfg.Grid.NZ)
	}
	if int(h[5]) != m.EP.Rank() {
		return nil, fmt.Errorf("gcm: checkpoint for rank %d restored on rank %d", h[5], m.EP.Rank())
	}
	if h[6] > math.MaxInt32 || h[7] > 1 {
		return nil, fmt.Errorf("gcm: checkpoint header: step count %d, AB cursor %d", h[6], h[7])
	}
	secs := m.checkpointSections()
	raw, err := readSections(r, secs)
	if err != nil {
		return nil, err
	}
	return func() {
		loadSections(secs, raw)
		m.Steps = int(h[6])
		m.S.SetABCursor(int(h[7]), m.Steps > 0)
		// Halos are not stored; bring them current so the next step sees a
		// consistent overlap region.  A header-validation error (including
		// the rank check) aborts the whole restart; ranks cannot diverge
		// into the exchange.
		//lint:allow commlock restore errors abort the run, ranks cannot diverge here
		m.exchangeState()
	}, nil
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

func writeSections(w io.Writer, secs []checkpointSection) error {
	for _, sec := range secs {
		if err := writeFloats(w, sec.data); err != nil {
			return fmt.Errorf("gcm: checkpoint section %s: %w", sec.name, err)
		}
	}
	return nil
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

func writeFloats(w io.Writer, data []float64) error {
	buf := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	_, err := w.Write(buf)
	return err
}
