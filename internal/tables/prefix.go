package tables

import (
	"fmt"

	"nezha/internal/packet"
)

// Prefix is an IPv4 CIDR prefix.
type Prefix struct {
	IP  packet.IPv4
	Len uint8 // 0..32
}

// MakePrefix builds a prefix, masking off host bits.
func MakePrefix(ip packet.IPv4, length uint8) Prefix {
	if length > 32 {
		length = 32
	}
	return Prefix{IP: ip & mask(length), Len: length}
}

func mask(l uint8) packet.IPv4 {
	if l == 0 {
		return 0
	}
	return packet.IPv4(^uint32(0) << (32 - l))
}

func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.IP, p.Len)
}

// PortRange is an inclusive transport port range. The zero range
// matches everything (an unconfigured field in an ACL rule).
type PortRange struct {
	Lo, Hi uint16
}
