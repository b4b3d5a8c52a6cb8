package arctic

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzWireCRC: the slicing-by-4 fold in wireCRC equals the
// byte-at-a-time reference (crcUpdateWord) and the standard library's
// IEEE CRC-32 over the little-endian wire image, for any header and
// payload a packet can carry.
func FuzzWireCRC(f *testing.F) {
	for trial := 0; trial < 8; trial++ {
		payload := make([]byte, 4*(MinPayloadWords+trial))
		for i := range payload {
			payload[i] = byte(trial*31 + i)
		}
		f.Add(trial%2 == 1, uint16(trial*3%16), uint16(trial), uint8(trial), trial%3 == 0, uint16(trial*7), payload)
	}
	f.Fuzz(func(t *testing.T, hi bool, down, upDigits uint16, upSteps uint8, randomUp bool, tag uint16, payload []byte) {
		p := &Packet{DownRoute: down, UpDigits: upDigits, UpSteps: upSteps, RandomUp: randomUp, Tag: tag}
		if hi {
			p.Pri = High
		}
		for i := 0; i+4 <= len(payload) && len(p.Payload) < MaxPayloadWords; i += 4 {
			p.Payload = append(p.Payload, binary.LittleEndian.Uint32(payload[i:]))
		}
		ref := crcUpdateWord(0, p.header0())
		ref = crcUpdateWord(ref, p.header1())
		wire := binary.LittleEndian.AppendUint32(nil, p.header0())
		wire = binary.LittleEndian.AppendUint32(wire, p.header1())
		for _, w := range p.Payload {
			ref = crcUpdateWord(ref, w)
			wire = binary.LittleEndian.AppendUint32(wire, w)
		}
		got := p.wireCRC()
		if got != ref || got != crc32.ChecksumIEEE(wire) {
			t.Fatalf("wireCRC %08x, byte-at-a-time %08x, crc32 %08x for %+v", got, ref, crc32.ChecksumIEEE(wire), p)
		}
	})
}
