//===- driver/Corpus.cpp - Built-in kernel corpus -------------------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Corpus.h"

#include <algorithm>
#include <map>

using namespace pdt;

// Kernel sources. The input language has no conditionals or calls;
// kernels that use them in the original are modeled by their array
// access pattern, which is all dependence testing sees.

static const CorpusKernel CorpusTable[] = {
    //===------------------------------------------------------------------===//
    // linpack: vector ops and LU factorization column sweeps.
    //===------------------------------------------------------------------===//
    {"daxpy", "linpack", R"(
! y = a*x + y
do i = 1, n
  dy(i) = dy(i) + da*dx(i)
end do
)"},
    {"daxpy_stride", "linpack", R"(
! unrolled-by-4 daxpy tail pattern
do i = 1, n, 4
  dy(i) = dy(i) + da*dx(i)
  dy(i+1) = dy(i+1) + da*dx(i+1)
  dy(i+2) = dy(i+2) + da*dx(i+2)
  dy(i+3) = dy(i+3) + da*dx(i+3)
end do
)"},
    {"dscal", "linpack", R"(
do i = 1, n
  dx(i) = da*dx(i)
end do
)"},
    {"ddot", "linpack", R"(
dtemp = 0
do i = 1, n
  dtemp = dtemp + dx(i)*dy(i)
end do
)"},
    {"dgefa_update", "linpack", R"(
! rank-1 trailing update of LU factorization
do j = k+1, n
  t = a(k, j)
  do i = k+1, n
    a(i, j) = a(i, j) + t*a(i, k)
  end do
end do
)"},
    {"dgesl_back", "linpack", R"(
! back substitution sweep
do kb = 1, n
  k = n + 1 - kb
  b(k) = b(k)/a(k, k)
  t = b(k)
  do i = 1, k-1
    b(i) = b(i) - t*a(i, k)
  end do
end do
)"},
    {"dgefa_pivot_swap", "linpack", R"(
! row exchange after pivoting
do j = k, n
  t = a(l, j)
  a(l, j) = a(k, j)
  a(k, j) = t
end do
)"},
    {"dtrsl_lower", "linpack", R"(
! forward solve with a unit lower triangular matrix
do j = 1, n
  do i = j+1, n
    b(i) = b(i) - t(i, j)*b(j)
  end do
end do
)"},
    {"dmxpy", "linpack", R"(
! y = y + m*x, column-major
do j = 1, m
  do i = 1, n
    y(i) = y(i) + x(j)*a(i, j)
  end do
end do
)"},

    //===------------------------------------------------------------------===//
    // eispack: symmetric reductions with coupled subscripts.
    //===------------------------------------------------------------------===//
    {"tred2_sym", "eispack", R"(
! symmetric rank-2 update: coupled (i,j) and (j,i)
do j = 1, n
  do i = 1, j
    z(i, j) = z(i, j) - e(i)*d(j) - d(i)*e(j)
    z(j, i) = z(i, j)
  end do
end do
)"},
    {"tred1_accum", "eispack", R"(
do i = 1, n
  do j = 1, i-1
    e(j) = e(j) + a(i, j)*d(i)
    d(j) = a(i, j)
  end do
end do
)"},
    {"tql2_shift", "eispack", R"(
! eigenvector accumulation
do k = 1, n
  do j = 1, n
    h = z(k, j+1)
    z(k, j+1) = s*z(k, j) + c*h
    z(k, j) = c*z(k, j) - s*h
  end do
end do
)"},
    {"hqr_row", "eispack", R"(
do j = k, n
  p = h(k, j) + q*h(k+1, j)
  h(k, j) = h(k, j) - p*x
  h(k+1, j) = h(k+1, j) - p*y
end do
)"},
    {"hqr2_backsub", "eispack", R"(
! back substitution over the quasi-triangular matrix
do i = 1, en
  do j = i+1, en
    h(i, en) = h(i, en) + h(i, j)*h(j, en)
  end do
end do
)"},
    {"minfit_householder", "eispack", R"(
do j = 1, n
  s = 0
  do k = 1, m
    s = s + u(k, j)*u(k, i)
  end do
  do k = 1, m
    u(k, j) = u(k, j) + s*u(k, i)
  end do
end do
)"},
    {"balanc_swap", "eispack", R"(
! row/column exchange pattern: coupled RDIV subscripts
do i = 1, n
  do j = 1, n
    b(i, j) = a(j, i)
  end do
end do
)"},
    {"htridi_scale", "eispack", R"(
do i = 1, n
  do j = 1, i
    ar(i, j) = ar(i, j)/scale
    ai(i, j) = ai(i, j)/scale
  end do
end do
)"},
    {"svd_rotate", "eispack", R"(
! plane rotation applied to two columns
do i = 1, m
  y = u(i, j)
  z = u(i, j+1)
  u(i, j) = y*cs + z*sn
  u(i, j+1) = z*cs - y*sn
end do
)"},
    {"reduc_chol", "eispack", R"(
do j = 1, n
  do i = j, n
    x = a(i, j)
    do k = 1, j-1
      x = x - b(i, k)*a(j, k)
    end do
    a(i, j) = x
  end do
end do
)"},

    //===------------------------------------------------------------------===//
    // livermore: the Livermore Fortran Kernels access patterns.
    //===------------------------------------------------------------------===//
    {"lfk1_hydro", "livermore", R"(
do k = 1, n
  x(k) = q + y(k)*(r*z(k+10) + t*z(k+11))
end do
)"},
    {"lfk2_iccg", "livermore", R"(
do k = 1, n, 2
  x(k) = x(k) - x(k+1)*x(k+2)
end do
)"},
    {"lfk3_inner", "livermore", R"(
q = 0
do k = 1, n
  q = q + z(k)*x(k)
end do
)"},
    {"lfk5_tridiag", "livermore", R"(
! true recurrence: carried flow dependence distance 1
do i = 2, n
  x(i) = z(i)*(y(i) - x(i-1))
end do
)"},
    {"lfk6_recur", "livermore", R"(
do i = 2, n
  do k = 1, i-1
    w(i) = w(i) + b(i, k)*w(i-k)
  end do
end do
)"},
    {"lfk7_state", "livermore", R"(
do k = 1, n
  x(k) = u(k) + r*(z(k) + r*y(k)) + t*(u(k+3) + r*(u(k+2) + r*u(k+1)))
end do
)"},
    {"lfk8_adi", "livermore", R"(
do kx = 2, 3
  do ky = 2, n
    du1(ky) = u1(kx, ky+1) - u1(kx, ky-1)
    u1(kx+1, ky) = u1(kx-1, ky) + a11*du1(ky)
  end do
end do
)"},
    {"lfk11_partial_sum", "livermore", R"(
do k = 2, n
  x(k) = x(k-1) + y(k)
end do
)"},
    {"lfk12_first_diff", "livermore", R"(
do k = 1, n
  x(k) = y(k+1) - y(k)
end do
)"},
    {"lfk18_hydro2d", "livermore", R"(
do k = 2, kn
  do j = 2, jn
    za(j, k) = (zp(j-1, k+1) + zq(j-1, k+1) - zp(j-1, k) - zq(j-1, k))
    zb(j, k) = (zp(j-1, k) + zq(j-1, k) - zp(j, k) - zq(j, k))
  end do
end do
)"},
    {"lfk21_matmul", "livermore", R"(
do k = 1, 25
  do i = 1, 25
    do j = 1, n
      px(i, j) = px(i, j) + vy(i, k)*cx(k, j)
    end do
  end do
end do
)"},
    {"lfk4_banded", "livermore", R"(
! banded linear equations: strided exact SIV subscripts
do k = 7, 107, 50
  do i = 1, n
    xz(k) = xz(k) - x(k-i)*y(i)
  end do
end do
)"},
    {"lfk9_integrate", "livermore", R"(
do i = 1, n
  px(i, 1) = dm28*px(i, 13) + dm27*px(i, 12) + dm26*px(i, 11)
  px(i, 3) = px(i, 3) + px(i, 1)
end do
)"},
    {"lfk10_diff", "livermore", R"(
do i = 1, n
  br(i, 5) = px(i, 5) - br(i, 5)
  px(i, 5) = ar(i)
  br(i, 6) = px(i, 6) - br(i, 6)
  px(i, 6) = br(i, 5)
end do
)"},
    {"lfk13_pic2d", "livermore", R"(
! 2-D particle in cell: strided even/odd access
do ip = 1, n
  i1 = p(ip, 1)
  j1 = p(ip, 2)
  p(ip, 3) = p(ip, 3) + b(i1, j1)
  p(ip, 4) = p(ip, 4) + c(i1, j1)
end do
)"},
    {"lfk14_particle1d", "livermore", R"(
do k = 1, n
  vx(k) = vx(k) + ex(k)
  xx(k) = xx(k) + vx(k)
  ir(k) = xx(k)
  rx(k) = xx(k) - ir(k)
end do
)"},
    {"lfk16_monte", "livermore", R"(
! branchless core of the Monte Carlo search loop
do k = 1, n
  j2 = (n + n)*(m - 1) + k*2
  plan(k) = zone(j2 + 1)
  zone(k) = plan(k)*r
end do
)"},
    {"lfk23_implicit2d", "livermore", R"(
do j = 2, 6
  do k = 2, n
    qa = za(k, j+1)*zr(k, j) + za(k, j-1)*zb(k, j) + za(k+1, j) + za(k-1, j)
    za(k, j) = za(k, j) + s*(qa - za(k, j))
  end do
end do
)"},
    {"lfk24_minloc", "livermore", R"(
! findmin pattern: scalar carried dependence only
m = 1
do k = 2, n
  m = m + x(k) - x(m)
end do
)"},
    {"lfk22_skewed", "livermore", R"(
! wavefront after skewing: coupled subscripts from normalization
do j = 2, n
  do i = 2, m
    a(i, j) = a(i-1, j) + a(i, j-1)
  end do
end do
)"},

    //===------------------------------------------------------------------===//
    // spec: tomcatv/swim-style stencils.
    //===------------------------------------------------------------------===//
    {"tomcatv_weakzero", "spec", R"(
! the SPEC tomcatv pattern: the first column feeds every iteration
do i = 1, n
  y(i) = y(1) + dd*x(i)
end do
)"},
    {"tomcatv_mesh", "spec", R"(
do j = 2, n-1
  do i = 2, n-1
    xx(i, j) = x(i+1, j) - x(i-1, j)
    yx(i, j) = y(i+1, j) - y(i-1, j)
    xy(i, j) = x(i, j+1) - x(i, j-1)
    yy(i, j) = y(i, j+1) - y(i, j-1)
  end do
end do
)"},
    {"tomcatv_rhs", "spec", R"(
do j = 2, n-1
  do i = 2, n-1
    rx(i, j) = a(i, j)*pxx(i, j) + b(i, j)*qxx(i, j)
    ry(i, j) = a(i, j)*pyy(i, j) + b(i, j)*qyy(i, j)
  end do
end do
)"},
    {"swim_calc1", "spec", R"(
do j = 1, n
  do i = 1, m
    cu(i+1, j) = p5*(p(i+1, j) + p(i, j))*u(i+1, j)
    cv(i, j+1) = p5*(p(i, j+1) + p(i, j))*v(i, j+1)
    z(i+1, j+1) = (fsdx*(v(i+1, j+1) - v(i, j+1)))
    h(i, j) = p(i, j) + p25*(u(i+1, j)*u(i+1, j) + u(i, j)*u(i, j))
  end do
end do
)"},
    {"nasa7_gmtry", "spec", R"(
! Gaussian elimination sweep from the NASA7 kernels
do i = 2, ns
  do j = 1, i-1
    do k = 1, nw
      rmatrx(i, k) = rmatrx(i, k) - rmatrx(i, j)*rmatrx(j, k)
    end do
  end do
end do
)"},
    {"matrix300_mm", "spec", R"(
do j = 1, n
  do k = 1, n
    do i = 1, n
      c(i, j) = c(i, j) + a(i, k)*b(k, j)
    end do
  end do
end do
)"},

    //===------------------------------------------------------------------===//
    // riceps: application loops (wave/weather/seismic-like patterns).
    //===------------------------------------------------------------------===//
    {"wave_redblack", "riceps", R"(
! red-black relaxation: strided independent sweeps
do i = 2, n, 2
  v(i) = v(i-1) + v(i+1)
end do
)"},
    {"wave_strided", "riceps", R"(
do i = 1, n
  a(2*i) = b(i) + c(i)
  d(i) = a(2*i+1)
end do
)"},
    {"weather_shift", "riceps", R"(
do j = 1, m
  do i = 1, n
    q(i, j) = q(i, j+1) + dq(i)
  end do
end do
)"},
    {"seismic_conv", "riceps", R"(
do i = 1, n
  do j = 1, k
    out(i+j) = out(i+j) + sig(i)*flt(j)
  end do
end do
)"},
    {"adm_transpose", "riceps", R"(
do i = 1, n
  do j = 1, i-1
    t = a(i, j)
    a(i, j) = a(j, i)
    a(j, i) = t
  end do
end do
)"},
    {"boast_reflect", "riceps", R"(
! reflection with constant extent: weak-crossing at 101/2
do i = 1, 100
  a(i) = a(101-i) + b(i)
end do
)"},
    {"interp_stride", "riceps", R"(
! interpolation with mixed strides: exact SIV subscripts
do i = 1, 50
  f(2*i) = f(3*i+1) + g(i)
end do
)"},
    {"shallow_edge", "riceps", R"(
! boundary column feeds the sweep: weak-zero at the first iteration
do i = 1, 64
  e(i) = e(1) + de(i)
end do
)"},
    {"track_crossing", "riceps", R"(
! reversal: weak-crossing dependences about (n+1)/2
do i = 1, n
  a(i) = a(n-i+1) + b(i)
end do
)"},

    //===------------------------------------------------------------------===//
    // perfect: Perfect-club style kernels.
    //===------------------------------------------------------------------===//
    {"flo52_sweep", "perfect", R"(
do j = 2, jl
  do i = 2, il
    w(i, j) = w(i, j) + rfl*(fs(i, j) - fs(i-1, j))
  end do
end do
)"},
    {"qcd_link", "perfect", R"(
do i = 1, n
  u(i, 1) = u(i, 2)*g(i)
  u(i, 2) = u(i, 3)*g(i)
  u(i, 3) = u(i, 1)*g(i)
end do
)"},
    {"trfd_integrals", "perfect", R"(
! integral transformation: coupled triangular indexing
do mi = 1, morb
  do mj = 1, mi
    xrsiq(mi, mj) = xij(mi)*v(mj, mrs)
    xrsiq(mj, mi) = xij(mj)*v(mi, mrs)
  end do
end do
)"},
    {"dyfesm_stress", "perfect", R"(
do ne = 1, nelem
  do k = 1, 8
    xe(k, ne) = xe(k, ne) + dd*fe(k, ne)
  end do
end do
)"},
    {"mdg_pairs", "perfect", R"(
do i = 1, n
  do j = 1, n
    f(i, j) = x(i) - x(j)
    r(i, j) = f(i, j)*f(j, i)
  end do
end do
)"},
    {"ocean_fft_stride", "perfect", R"(
do i = 1, n
  do j = 1, m
    work(i + 2*n*j) = data(i + n*j)
  end do
end do
)"},
    {"spice_sparse", "perfect", R"(
! indirect addressing defeats the tests: nonlinear subscripts
do i = 1, n
  y(idx(i)) = y(idx(i)) + v(i)
end do
)"},
    {"bdna_induction", "perfect", R"(
! auxiliary induction variable, substituted by the analyzer
k = 0
do i = 1, n
  k = k + 2
  c(k) = c(k) + d(i)
end do
)"},

    //===------------------------------------------------------------------===//
    // paper: worked examples from the paper text.
    //===------------------------------------------------------------------===//
    {"paper_strong_siv", "paper", R"(
! classic strong SIV recurrence, distance 1
do i = 1, n
  a(i+1) = a(i) + b(i)
end do
)"},
    {"paper_weak_zero_first", "paper", R"(
! weak-zero SIV at the first iteration: peelable
do i = 1, n
  y(i) = y(1) + w(i)
end do
)"},
    {"paper_weak_crossing", "paper", R"(
! Callahan-Dongarra-Levine loop: all dependences cross (n+1)/2
do i = 1, n
  a(i) = a(n-i+1) + c(i)
end do
)"},
    {"paper_delta_coupled", "paper", R"(
! coupled group where subscript-by-subscript testing is imprecise but
! the Delta test proves independence: constraints i'=i+1 (dim 1) and
! i'=i-1 (dim 2) have an empty intersection
do i = 1, n
  a(i+1, i) = a(i, i+1) + b(i)
end do
)"},
    {"paper_delta_propagate", "paper", R"(
! distance constraint from the first (SIV) subscript reduces the
! second (MIV) subscript, yielding exact distance vectors
do i = 1, n
  do j = 1, n
    a(i+1, i+j) = a(i, i+j) + b(j)
  end do
end do
)"},
    {"paper_skewed_livermore", "paper", R"(
! simplified Livermore kernel from section 5.3: separable strong SIV
! subscripts give distance vectors (1,0) and (0,1)
do j = 1, n
  do i = 1, n
    a(i, j) = a(i-1, j) + a(i, j-1)
  end do
end do
)"},
    {"paper_rdiv_transpose", "paper", R"(
! coupled RDIV pair: distance vectors (d, -d), directions (<,>)/(=,=)
do i = 1, n
  do j = 1, n
    a(i, j) = a(j, i) + b(i, j)
  end do
end do
)"},
    {"paper_gcd_stride", "paper", R"(
! GCD disproves dependence: 2i vs 2i'+1 never meet
do i = 1, n
  a(2*i) = a(2*i+1) + b(i)
end do
)"},
    {"paper_triangular", "paper", R"(
! triangular nest: index ranges come from the outer loop's bound
do i = 1, n
  do j = 1, i
    a(i, j) = a(j, j) + b(i)
  end do
end do
)"},
    {"paper_weak_zero_last", "paper", R"(
! weak-zero SIV at the last iteration (tomcatv-like): peelable
do i = 1, n
  y(i) = y(n) + w(i)
end do
)"},
    {"paper_exact_siv", "paper", R"(
! general exact SIV: 2i vs 4i'+1 has no solution by parity
do i = 1, 100
  a(2*i) = a(4*i+1) + b(i)
end do
)"},
    {"paper_symbolic_ziv", "paper", R"(
! symbolic ZIV: n+1 != n for every n
do i = 1, m
  a(n) = a(n+1) + b(i)
end do
)"},
};

const std::vector<CorpusKernel> &pdt::corpus() {
  static const std::vector<CorpusKernel> Kernels(std::begin(CorpusTable),
                                                 std::end(CorpusTable));
  return Kernels;
}

std::vector<std::string> pdt::suiteNames() {
  std::vector<std::string> Names;
  for (const CorpusKernel &K : corpus())
    if (Names.empty() || Names.back() != K.Suite)
      Names.push_back(K.Suite);
  return Names;
}

std::vector<const CorpusKernel *>
pdt::kernelsInSuite(const std::string &Suite) {
  std::vector<const CorpusKernel *> Result;
  for (const CorpusKernel &K : corpus())
    if (K.Suite == Suite)
      Result.push_back(&K);
  return Result;
}

const CorpusKernel *pdt::findKernel(const std::string &Name) {
  for (const CorpusKernel &K : corpus())
    if (K.Name == Name)
      return &K;
  return nullptr;
}
