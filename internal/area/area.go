// Package area is the parametric FPGA resource model that regenerates the
// paper's Table I (synthesis results on the ML605's Virtex-6
// XC6VLX240T-1).
//
// The paper obtained its numbers from Xilinx XST; this repository has no
// synthesizer, so each module exposes a structural cost model — registers,
// LUTs, fully-used LUT-FF pairs and BRAM36 blocks as functions of the
// module's parameters (rule count, on-chip tag state, core count). The
// constants are calibrated so that the paper's exact configuration
// reproduces the paper's exact rows; away from that point the model moves
// the way the structure does (a firewall grows linearly with its rule
// count, the integrity core with its on-chip tag state), which is what the
// rule-sweep experiment E2 exercises.
//
// Note that Table I's printed percentages are inconsistent with its own
// absolute numbers except for the BRAM column (63/53 = +18.87%); this
// model reproduces the absolute numbers and recomputes the percentages
// from them (the overhead row of RenderTable1).
package area

import "fmt"

// Resources is one module's FPGA footprint in Table I's four columns.
type Resources struct {
	Regs  uint64 // slice registers
	LUTs  uint64 // slice LUTs
	Pairs uint64 // fully used LUT-FF pairs
	BRAM  uint64 // 36Kb block RAMs
}

// Add returns the component-wise sum.
func (r Resources) Add(o Resources) Resources {
	return Resources{r.Regs + o.Regs, r.LUTs + o.LUTs, r.Pairs + o.Pairs, r.BRAM + o.BRAM}
}

// Scale returns the footprint of n instances.
func (r Resources) Scale(n int) Resources {
	u := uint64(n)
	return Resources{r.Regs * u, r.LUTs * u, r.Pairs * u, r.BRAM * u}
}

// String implements fmt.Stringer.
func (r Resources) String() string {
	return fmt.Sprintf("{regs:%d luts:%d pairs:%d bram:%d}", r.Regs, r.LUTs, r.Pairs, r.BRAM)
}

// Calibration constants. The "paper configuration" is: 3 MicroBlaze cores,
// one shared BRAM, one DDR controller, one dedicated IP, 5 Local Firewalls
// with 6 rules each, and one LCF whose Security Builder holds 3 zone rules
// and whose Integrity Core keeps 43,008 bits of on-chip tag state (1024
// version tags + 64 cached nodes — the defaults of internal/soc).
const (
	// CalibLFRules is the per-LF rule count of the calibration point.
	CalibLFRules = 6
	// CalibSBRules is the LCF Security Builder's rule count.
	CalibSBRules = 3
	// CalibICBits is the IC's on-chip tag state at calibration.
	CalibICBits = 1024*32 + 64*(128+32)

	// lfBaseLUTs/lfPerRuleLUTs: a Local Firewall is a rule CAM plus
	// comparators; it grows linearly with monitored rules (§V: "the cost
	// of firewalls is also related to the number of security rules").
	lfPerRuleLUTs = 40
	lfBaseLUTs    = 403 - CalibLFRules*lfPerRuleLUTs
	lfRegs        = 8

	// sbPerRuleLUTs/sbBaseLUTs: same shape for the LCF's Security
	// Builder (Table I row: 0 regs / 393 LUTs / 393 pairs / 0 BRAM).
	sbPerRuleLUTs = 48
	sbBaseLUTs    = 393 - CalibSBRules*sbPerRuleLUTs

	// icLUTsPerTagWord: extra on-chip tag state beyond the calibration
	// point costs distributed RAM, 32 bits per LUT.
	icLUTsPerTagWord = 32
)

// MicroBlazeCore is one soft core with its local memories.
func MicroBlazeCore() Resources { return Resources{2410, 2180, 3010, 12} }

// DDRController is the external-memory controller (MIG).
func DDRController() Resources { return Resources{3500, 2900, 3700, 2} }

// SharedBRAMCtrl is the internal shared memory with its bus controller.
func SharedBRAMCtrl() Resources { return Resources{350, 420, 500, 14} }

// DedicatedIP is the case study's accelerator.
func DedicatedIP() Resources { return Resources{980, 760, 890, 1} }

// BusFabric is the PLB arbiter, decoder and miscellaneous system glue,
// sized to close the base system at the paper's exact "w/o firewalls" row.
func BusFabric() Resources { return Resources{835, 854, 1353, 0} }

// InterfaceAdapter is the LFCB + FI shell around each firewall (bus
// protocol handling, datapath gating, alert wiring). Table I does not list
// it as a row; it is part of the with/without delta.
func InterfaceAdapter() Resources { return Resources{160, 450, 220, 0} }

// SecurityController is the system-level alert aggregation and
// configuration access logic, the remainder of the with/without delta.
func SecurityController() Resources { return Resources{278, 582, 281, 0} }

// LocalFirewall models one LF's Security Builder and Configuration Memory
// as a function of its rule count.
func LocalFirewall(rules int) Resources {
	if rules < 0 {
		rules = 0
	}
	luts := uint64(lfBaseLUTs + rules*lfPerRuleLUTs)
	return Resources{Regs: lfRegs, LUTs: luts, Pairs: luts, BRAM: 0}
}

// SecurityBuilder models the LCF's rule checker.
func SecurityBuilder(rules int) Resources {
	if rules < 0 {
		rules = 0
	}
	luts := uint64(sbBaseLUTs + rules*sbPerRuleLUTs)
	return Resources{Regs: 0, LUTs: luts, Pairs: luts, BRAM: 0}
}

// ConfidentialityCore is the AES-128 engine (32-bit datapath, tables in
// BRAM) — Table I row: 436 / 986 / 344 / 10.
func ConfidentialityCore() Resources { return Resources{436, 986, 344, 10} }

// IntegrityCore models the hash-tree engine. onChipBits is the trusted
// state it must keep (version tags + cached nodes, hashtree.OnChipBits);
// state beyond the calibration point costs distributed RAM.
func IntegrityCore(onChipBits uint64) Resources {
	r := Resources{1224, 1404, 1704, 0}
	if onChipBits > CalibICBits {
		extra := (onChipBits - CalibICBits + icLUTsPerTagWord - 1) / icLUTsPerTagWord
		r.LUTs += extra
		r.Pairs += extra
	}
	return r
}

// LCF composes the Local Ciphering Firewall from its Table I submodules
// plus its interface adapter.
func LCF(sbRules int, onChipBits uint64) Resources {
	return SecurityBuilder(sbRules).
		Add(ConfidentialityCore()).
		Add(IntegrityCore(onChipBits)).
		Add(InterfaceAdapter())
}

// Item is one row of an area report.
type Item struct {
	Name  string
	Count int
	Res   Resources // per instance
}

// Total returns the item's aggregate footprint.
func (i Item) Total() Resources { return i.Res.Scale(i.Count) }

// Report is a bill of materials with a grand total.
type Report struct {
	Title string
	Items []Item
}

// Add appends an item.
func (r *Report) Add(name string, count int, res Resources) {
	r.Items = append(r.Items, Item{Name: name, Count: count, Res: res})
}

// Total sums all items.
func (r *Report) Total() Resources {
	var t Resources
	for _, it := range r.Items {
		t = t.Add(it.Total())
	}
	return t
}

// BaseSystem is the generic platform without protection ("Generic w/o
// firewalls"): numCores soft cores, DDR controller, shared BRAM, dedicated
// IP and bus fabric.
func BaseSystem(numCores int) *Report {
	r := &Report{Title: "generic system w/o firewalls"}
	r.Add("microblaze core", numCores, MicroBlazeCore())
	r.Add("ddr controller", 1, DDRController())
	r.Add("shared bram", 1, SharedBRAMCtrl())
	r.Add("dedicated ip", 1, DedicatedIP())
	r.Add("bus fabric", 1, BusFabric())
	return r
}

// PaperProtected is the paper's exact protected configuration: the base
// system plus 5 Local Firewalls (3 cores, shared memory, dedicated IP),
// their interface adapters, the LCF and the security controller.
func PaperProtected() *Report {
	r := BaseSystem(3)
	r.Title = "generic system w/ firewalls (paper configuration)"
	r.Add("local firewall", 5, LocalFirewall(CalibLFRules))
	r.Add("interface adapter", 5, InterfaceAdapter())
	r.Add("lcf", 1, LCF(CalibSBRules, CalibICBits))
	r.Add("security controller", 1, SecurityController())
	return r
}

// PaperTable1Rows returns the exact rows the paper prints, as (name,
// resources) in the paper's order: the two system totals and the four
// module rows.
func PaperTable1Rows() []Item {
	return []Item{
		{Name: "Generic w/o firewalls", Count: 1, Res: BaseSystem(3).Total()},
		{Name: "Generic w/ firewalls", Count: 1, Res: PaperProtected().Total()},
		{Name: "LCF: SB", Count: 1, Res: SecurityBuilder(CalibSBRules)},
		{Name: "LCF: CC", Count: 1, Res: ConfidentialityCore()},
		{Name: "LCF: IC", Count: 1, Res: IntegrityCore(CalibICBits)},
		{Name: "Local Firewall", Count: 1, Res: LocalFirewall(CalibLFRules)},
	}
}
