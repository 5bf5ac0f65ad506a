module besteffs/bench

go 1.22

require besteffs v0.0.0

replace besteffs => ../
