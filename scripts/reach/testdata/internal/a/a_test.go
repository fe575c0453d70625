package a

func testOnly() {}
