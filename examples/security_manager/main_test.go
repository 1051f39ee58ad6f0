package main

// Example runs the demo and pins what it prints.
func Example() {
	main()
	// Output:
	// manager observed violations:
	//   alert 1: thread
	//   alert 2: zone
	//   alert 3: zone
	// cpu1 quarantined: true (after 3 violations)
	// exfiltration result: bram[0] = 0x0 (0 = contained)
	// cpu1 saw 4 discarded transfers
	// after release: quarantined = false
}
