module condmon/bench

go 1.22

require condmon v0.0.0

replace condmon => ../
