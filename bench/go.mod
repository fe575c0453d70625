module ripple/bench

go 1.24

require ripple v0.0.0

replace ripple => ../
