! memoria fuzz reproducer (pinned, minimized from seed=19 index=105)
! oracle=roundtrip
! Compound reverses K here, so K inside the real expression becomes the
! integer expression 2+N/2-K. Fortran evaluates N/2 in integer
! arithmetic (4 for N = 9); the parser used to lower it to a real
! division (4.5) even when the expression was parenthesised.
PROGRAM PINREVINTDIV
PARAMETER (N = 9)
REAL*8 A(N+2)
REAL*8 B(11, 11, N+2)
DO I = 1, N
  DO J = N, 1, -1
    DO K = 2, N/2
      B(I,K,I) = MIN(A(J), A(J)) + K + 1.5
      B(I+1,K-1,2) = B(I+2,K,K+1) / 2.0 * 1.25 - (A(J+1) - SQRT(1.0))
    ENDDO
  ENDDO
ENDDO
END
