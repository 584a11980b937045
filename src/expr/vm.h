// Vectorized virtual machine for compiled expression programs: one
// instruction dispatch processes a whole morsel, reading and writing typed
// register vectors instead of boxed Values.
//
// Lifecycle: construct over a program, Bind to an input table with the
// largest morsel length Run will see (constants materialize once here),
// then Run per morsel. Column-load instructions bind zero-copy views into
// the input columns each Run, so re-running over successive morsels costs
// no per-column copies; computed registers own reusable buffers.
//
// Null representation matches Column: a register with `valid == nullptr`
// has no null lanes; otherwise `valid[i] == 0` marks lane i null and the
// payload of a null lane is the type's default (0 / 0.0 / false / ""), the
// same normalization Column::AppendNull performs. Null-bitmap-aware
// instruction variants compute only valid lanes, so garbage payloads can
// never feed arithmetic (and the tight no-null loops stay branch-free).
//
// Programs are infallible by construction (bytecode.h refuses the only
// runtime-fallible ops), so Run returns void: division/modulo by zero,
// sqrt of negatives and log of non-positives yield null lanes exactly like
// the row interpreter.
#ifndef NEXUS_EXPR_VM_H_
#define NEXUS_EXPR_VM_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "expr/bytecode.h"
#include "types/column.h"
#include "types/table.h"

namespace nexus {

/// One virtual register: typed read views (into an input column or into the
/// register's own storage) plus lazily used owned buffers.
struct VMReg {
  DataType type = DataType::kInt64;
  // Read views; only the pointer matching `type` is meaningful.
  const int64_t* i = nullptr;
  const double* d = nullptr;
  const uint8_t* b = nullptr;  // bools as 0/1
  const std::string* s = nullptr;
  const uint8_t* valid = nullptr;  ///< nullptr = all lanes valid (1 = valid)

  // Owned storage for computed registers.
  std::vector<int64_t> vi;
  std::vector<double> vd;
  std::vector<uint8_t> vb;
  std::vector<std::string> vs;
  std::vector<uint8_t> vvalid;

  bool LaneValid(int64_t lane) const {
    return valid == nullptr || valid[lane] != 0;
  }

  // Buffer claims: size the owned vector, point the read view at it, and
  // return the mutable pointer.
  int64_t* OwnI(int64_t n) {
    vi.resize(static_cast<size_t>(n));
    i = vi.data();
    return vi.data();
  }
  double* OwnD(int64_t n) {
    vd.resize(static_cast<size_t>(n));
    d = vd.data();
    return vd.data();
  }
  uint8_t* OwnB(int64_t n) {
    vb.resize(static_cast<size_t>(n));
    b = vb.data();
    return vb.data();
  }
  std::string* OwnS(int64_t n) {
    vs.resize(static_cast<size_t>(n));
    s = vs.data();
    return vs.data();
  }
  uint8_t* OwnValid(int64_t n) {
    vvalid.assign(static_cast<size_t>(n), 1);
    valid = vvalid.data();
    return vvalid.data();
  }
  void ClearValid() { valid = nullptr; }
};

/// Executes one ExprProgram morsel-at-a-time. Not thread-safe: parallel
/// drivers use one VM per morsel (or per worker).
class ExprVM {
 public:
  explicit ExprVM(const ExprProgram* prog) : prog_(prog) {}

  /// Prepares registers for `table`. `capacity` must be >= the largest
  /// (end - begin) later passed to Run; constants materialize here once.
  void Bind(const Table& table, int64_t capacity);

  /// Executes the program over rows [begin, end) of the bound table.
  void Run(int64_t begin, int64_t end);

  /// Rows evaluated by the last Run.
  int64_t len() const { return len_; }

  /// Register holding compiled output `k`, lanes [0, len()).
  const VMReg& out_reg(int k) const {
    return regs_[prog_->outputs[static_cast<size_t>(k)]];
  }

  /// Appends lanes [0, len()) of output `k` to `*out` (null lanes append
  /// null). The column's type must equal the output's type.
  void AppendOutput(int k, Column* out) const;

  /// Appends only the given lanes of output `k`, in order.
  void AppendOutputLanes(int k, std::span<const int64_t> lanes,
                         Column* out) const;

 private:
  void Exec(const Instr& in, int64_t begin, int64_t n);

  const ExprProgram* prog_;
  const Table* table_ = nullptr;
  std::vector<VMReg> regs_;
  std::vector<const Instr*> body_;  ///< non-prologue instructions
  int64_t len_ = 0;
};

/// Selection kernels over a bool vector whose lane i is true when `bits[i]`
/// is nonzero and `valid` is null or `valid[i]` is nonzero (SQL WHERE: null
/// is not true). Both are branch-free: every lane is written and the cursor
/// advances by the lane's bit. Callers select kSelectBlock lanes at a time
/// into a buffer on their stack, so no selection touches heap memory beyond
/// the survivors it copies out.
inline constexpr int64_t kSelectBlock = 1024;

/// Writes `base + i` for each true lane i in [0, n), ascending, to `out`
/// (which must hold n entries) and returns how many there are.
int64_t SelectTrueLanes(const uint8_t* bits, const uint8_t* valid, int64_t n,
                        int64_t base, int64_t* out);
/// Keeps, in place and in order, the `count` lanes of `lanes` that are true;
/// returns how many are kept.
int64_t NarrowTrueLanes(const uint8_t* bits, const uint8_t* valid,
                        int64_t* lanes, int64_t count);

/// Runs `prog` over every row of `table` in ParallelMorsels order. Each
/// morsel makes its piece with init(begin, end) -> T, binds one VM to its
/// range (the whole table when the region runs inline, so constants
/// materialize once) and runs it kMorselRows lanes at a time, calling
/// step(vm, base, &piece) after each run; `base` is the run's first row.
template <typename T, typename Init, typename Step>
Result<std::vector<T>> RunProgramMorsels(const ExprProgram* prog,
                                         const Table& table, Init&& init,
                                         Step&& step) {
  return ParallelMorsels<T>(table.num_rows(), [&](int64_t begin, int64_t end) {
    T piece = init(begin, end);
    ExprVM vm(prog);
    vm.Bind(table, std::min<int64_t>(end - begin, kMorselRows));
    for (int64_t b = begin; b < end; b += kMorselRows) {
      vm.Run(b, std::min<int64_t>(b + kMorselRows, end));
      step(vm, b, &piece);
    }
    return piece;
  });
}

}  // namespace nexus

#endif  // NEXUS_EXPR_VM_H_
