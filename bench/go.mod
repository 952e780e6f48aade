module lme/bench

go 1.24

require lme v0.0.0

replace lme => ../
