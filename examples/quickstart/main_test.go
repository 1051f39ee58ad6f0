package main

// Example runs the demo and pins what it prints.
func Example() {
	main()
	// Output:
	// Platform (distributed-firewalls, 100 MHz)
	//   system bus "plb" (round-robin arbiter, 4 masters)
	//   master cpu0   local[0x0,+0x10000] -> bus (via lf-cpu0)
	//   master cpu1   local[0x0,+0x10000] -> bus (via lf-cpu1)
	//   master cpu2   local[0x0,+0x10000] -> bus (via lf-cpu2)
	//   master dma    -> bus (via lf-dma)
	//   slave  bram     [0x10000000,+0x10000)  guarded by lf-bram (1 rules)
	//   slave  dma      [0x20000000,+0x20)  guarded by lf-dmaregs (1 rules)
	//   slave  mbox     [0x30000000,+0x10)  guarded by lf-mbox (1 rules)
	//   slave  alerts   [0x38000000,+0x20)  guarded by lf-alerts (1 rules)
	//   slave  ddr      [0x40000000,+0x80000)  guarded by lcf-ddr (3 rules, CC+IC, tree depth 10)
	//   external memory zones: secure[0x40000000,+0x8000] CM+IM, cipher[0x40010000,+0x8000] CM, plain[0x40020000,+0x10000]
	//
	// finished in 11326 cycles (0.11 ms at 100 MHz)
	// matmul checksum: 0x1880 (want 0x1880)
	// mailbox sum:     3504 (want 3504)
	// alerts:          0
	// cpu0: 10149 instructions, CPI 1.12, 1 bus ops
	// cpu1: 229 instructions, CPI 7.99, 64 bus ops
	// cpu2: 235 instructions, CPI 8.09, 66 bus ops
}
