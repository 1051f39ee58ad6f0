package main

// Example runs the demo and pins what it prints.
func Example() {
	main()
	// Output:
	// stored balance 1000 at 0x40000100 (secure zone: CM+IM)
	// external memory actually holds: 0xe7d680b7 (ciphertext)
	// legitimate read-back: 1000
	//
	// after 1-bit external tamper: resp=SECURITY_ERR data=0
	//   -> alert: cycle 2155: lcf-ddr blocked host read @0x40000100/4B (integrity: tamper)
	//
	// repaired by full-block rewrite: balance = 900
	//
	// after full-image replay:     resp=SECURITY_ERR data=0
	//   -> alert: cycle 4476: lcf-ddr blocked host read @0x40000100/4B (replay: replay)
	//
	// LCF totals: 4 blocks enciphered, 5 deciphered, 2 integrity failures
}
