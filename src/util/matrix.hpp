#pragma once
// Row-major owning matrix plus a lightweight strided, non-owning view.
//
// The library passes matrices across module boundaries as views (pointer,
// rows, cols, row stride) so that tiles, shards and sub-batches are zero-copy.

#include <cstddef>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace marlin {

using index_t = std::int64_t;

template <typename T>
class MatrixView;
template <typename T>
class ConstMatrixView;

/// Owning row-major matrix.
template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(index_t rows, index_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(checked_size(rows, cols), fill) {}

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] index_t size() const noexcept { return rows_ * cols_; }

  T& operator()(index_t i, index_t j) noexcept {
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }
  const T& operator()(index_t i, index_t j) const noexcept {
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }

  [[nodiscard]] T* data() noexcept { return data_.data(); }
  [[nodiscard]] const T* data() const noexcept { return data_.data(); }
  [[nodiscard]] std::span<T> row(index_t i) noexcept {
    return {data_.data() + i * cols_, static_cast<std::size_t>(cols_)};
  }
  [[nodiscard]] std::span<const T> row(index_t i) const noexcept {
    return {data_.data() + i * cols_, static_cast<std::size_t>(cols_)};
  }
  [[nodiscard]] std::span<T> flat() noexcept { return {data_}; }
  [[nodiscard]] std::span<const T> flat() const noexcept { return {data_}; }

  [[nodiscard]] MatrixView<T> view() noexcept;
  [[nodiscard]] ConstMatrixView<T> view() const noexcept;

 private:
  /// Validates the dims before the storage is sized (a negative count
  /// would otherwise surface as std::length_error from the vector).
  static std::size_t checked_size(index_t rows, index_t cols) {
    MARLIN_CHECK(rows >= 0 && cols >= 0, "matrix dims must be non-negative");
    return static_cast<std::size_t>(rows * cols);
  }

  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<T> data_;
};

/// Mutable strided view over external storage.
template <typename T>
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(T* data, index_t rows, index_t cols, index_t stride)
      : data_(data), rows_(rows), cols_(cols), stride_(stride) {}

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] index_t stride() const noexcept { return stride_; }
  [[nodiscard]] T* data() const noexcept { return data_; }

  T& operator()(index_t i, index_t j) const noexcept {
    return data_[static_cast<std::size_t>(i * stride_ + j)];
  }

  /// Sub-block [r0, r0+nr) x [c0, c0+nc); bounds-checked.
  [[nodiscard]] MatrixView block(index_t r0, index_t c0, index_t nr,
                                 index_t nc) const {
    MARLIN_CHECK(r0 >= 0 && c0 >= 0 && r0 + nr <= rows_ && c0 + nc <= cols_,
                 "block out of range");
    return {data_ + r0 * stride_ + c0, nr, nc, stride_};
  }

 private:
  T* data_ = nullptr;
  index_t rows_ = 0, cols_ = 0, stride_ = 0;
};

/// Read-only strided view.
template <typename T>
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const T* data, index_t rows, index_t cols, index_t stride)
      : data_(data), rows_(rows), cols_(cols), stride_(stride) {}
  // Implicit widening from the mutable view is safe and convenient.
  ConstMatrixView(MatrixView<T> v)  // NOLINT(google-explicit-constructor)
      : data_(v.data()), rows_(v.rows()), cols_(v.cols()), stride_(v.stride()) {}

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] index_t stride() const noexcept { return stride_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }

  const T& operator()(index_t i, index_t j) const noexcept {
    return data_[static_cast<std::size_t>(i * stride_ + j)];
  }

  [[nodiscard]] ConstMatrixView block(index_t r0, index_t c0, index_t nr,
                                      index_t nc) const {
    MARLIN_CHECK(r0 >= 0 && c0 >= 0 && r0 + nr <= rows_ && c0 + nc <= cols_,
                 "block out of range");
    return {data_ + r0 * stride_ + c0, nr, nc, stride_};
  }

 private:
  const T* data_ = nullptr;
  index_t rows_ = 0, cols_ = 0, stride_ = 0;
};

template <typename T>
MatrixView<T> Matrix<T>::view() noexcept {
  return {data_.data(), rows_, cols_, cols_};
}
template <typename T>
ConstMatrixView<T> Matrix<T>::view() const noexcept {
  return {data_.data(), rows_, cols_, cols_};
}

}  // namespace marlin
