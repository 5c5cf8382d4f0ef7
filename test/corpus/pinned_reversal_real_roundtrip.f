! memoria fuzz reproducer (pinned, minimized from seed=44 index=38)
! oracle=roundtrip
! Compound reverses K here, so K inside the real expression becomes the
! integer expression 2+N-K. It used to print without parentheses, as
! 2.0 + 2+N-K * 1.25, which reads back with a different value.
PROGRAM PINREVREAL
PARAMETER (N = 9)
REAL*8 A(N+2)
REAL*8 B(N+2, N+2)
REAL*8 D(N+2, N+2)
DO I = 1, N-1
  DO J = I, N/2
    DO K = 2, N
      D(N+1-J,K+2) = 2.0 + K * 1.25
      B(K,J+2) = B(K+1,J)
    ENDDO
  ENDDO
  A(I) = 0.25
ENDDO
END
