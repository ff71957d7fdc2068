; Sleepers, futures and touches in one concurrent run: the golden trace
; pins the timer wheel's wake order (equal deadlines wake in park
; order), parked touches, and the quiescence clock jump.
(define (nap n) (begin (sleep n) n))
(display
 (let* ((slow (future (begin (sleep 40) 10)))
        (fast (future (begin (sleep 2) (+ 1 (touch slow))))))
   (pcall + (touch fast) (nap 3) (nap 3) (touch slow) (nap 0))))
(newline)
