package workloads

import (
	"fmt"

	"repro/internal/library"
	"repro/internal/model"
)

// Example returns the built-in instance of the given name, as the cdcs
// CLI's -example flag and a cdcsd request's "example" field name it:
// wan, lan, mcm, noc or mpeg4.
func Example(name string) (*model.ConstraintGraph, *library.Library, error) {
	switch name {
	case "wan":
		return WAN(), WANLibrary(), nil
	case "lan":
		return LAN(), LANLibrary(), nil
	case "mcm":
		return MCM(), MCMLibrary(), nil
	case "noc":
		return NoC(), NoCLibrary(), nil
	case "mpeg4":
		return MPEG4(), MPEG4Technology().Library(), nil
	}
	return nil, nil, fmt.Errorf("unknown example %q (wan, lan, mcm, noc, mpeg4)", name)
}
