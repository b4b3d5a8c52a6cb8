package gcm

import (
	"encoding/binary"
	"fmt"
	"io"

	"hyades/internal/gcm/field"
)

// Coupled checkpointing: the tile checkpoint (Model.Checkpoint) plus
// the cross-component coupling state, so a coupled run restarts
// bit-for-bit from ANY step, not just coupling boundaries.  The extra
// state is exactly what the next couple() or AddTendencies reads
// before the coupler refreshes it: the atmosphere's current SST
// estimate (flux formulas read it before receiving the update), and
// the ocean's wind-stress/heating fields (applied every step between
// exchanges).

// coupledFlagHasField marks an optional field section as present.
const coupledFlagHasField = 1

// coupledFlagActive marks the ocean forcing as switched over from the
// climatological base to coupler-supplied fields.
const coupledFlagActive = 2

// Checkpoint writes the worker's full coupled state to w.
func (c *Coupled) Checkpoint(w io.Writer) error {
	if err := c.M.Checkpoint(w); err != nil {
		return err
	}
	var flags uint64
	var secs []checkpointSection
	if c.IsOcean {
		flags = coupledFlagHasField
		if c.oceanF.active {
			flags |= coupledFlagActive
		}
		secs = c.oceanSections()
	} else if c.phys != nil && c.phys.SST != nil {
		flags = coupledFlagHasField
		secs = []checkpointSection{{"SST", c.phys.SST.Raw()}}
	}
	if err := binary.Write(w, binary.LittleEndian, flags); err != nil {
		return fmt.Errorf("gcm: coupled checkpoint flags: %w", err)
	}
	return writeSections(w, secs)
}

// oceanSections lists the ocean side's coupling state in stream order.
func (c *Coupled) oceanSections() []checkpointSection {
	return []checkpointSection{
		{"ocean forcing TauX", c.oceanF.TauX.Raw()},
		{"ocean forcing TauY", c.oceanF.TauY.Raw()},
		{"ocean forcing Q", c.oceanF.Q.Raw()},
	}
}

// Restore loads a stream written by Checkpoint on a worker of the same
// configuration, rank and component, replacing the coupled state in
// place; a stream that fails to parse leaves the worker untouched.
// The coupling cadence resumes from the restored step count.
func (c *Coupled) Restore(r io.Reader) error {
	adoptTile, err := c.M.stage(r)
	if err != nil {
		return err
	}
	var flags uint64
	if err := binary.Read(r, binary.LittleEndian, &flags); err != nil {
		return fmt.Errorf("gcm: coupled checkpoint flags: %w", err)
	}
	if flags&^(coupledFlagHasField|coupledFlagActive) != 0 {
		return fmt.Errorf("gcm: coupled checkpoint flags: unknown bits in %#x", flags)
	}
	var secs []checkpointSection
	var sst *field.F2
	switch {
	case c.IsOcean:
		if flags&coupledFlagHasField == 0 {
			return fmt.Errorf("gcm: coupled checkpoint missing ocean forcing section")
		}
		secs = c.oceanSections()
	case flags&coupledFlagHasField != 0:
		if c.phys == nil {
			return fmt.Errorf("gcm: coupled checkpoint has SST but worker has no physics")
		}
		if sst = c.phys.SST; sst == nil {
			sst = field.NewF2(c.M.G.NX, c.M.G.NY, 2)
		}
		secs = []checkpointSection{{"SST", sst.Raw()}}
	}
	raw, err := readSections(r, secs)
	if err != nil {
		return err
	}
	loadSections(secs, raw)
	if c.IsOcean {
		c.oceanF.active = flags&coupledFlagActive != 0
	} else if sst != nil {
		c.phys.SST = sst
	}
	adoptTile()
	return nil
}
