package a

func testOnly(c counts) int { return c.tested }
