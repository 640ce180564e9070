//! The in-process template JIT: tree programs compiled to executable
//! x86-64 machine code.
//!
//! The paper's headline numbers come from lowering trees to
//! straight-line integer compare/branch machine code (Listing 5). The
//! `vm-*` engines execute that instruction stream faithfully but
//! through an interpreter dispatch loop, so the repo *simulated* the
//! paper's fastest path instead of running it. This module closes the
//! codegen loop: the same [`TreeProgram`]s the interpreter executes
//! (one shared lowering — the backends cannot drift) are emitted as
//! native machine code into `mmap`'d pages and called directly.
//!
//! Three layers, from portable to platform-bound:
//!
//! * [`EmittedCode`] — the **template emitter**. Pure safe code, runs
//!   on every platform (unit-testable without executing anything):
//!   each [`Instr`] maps to a prebuilt x86-64 byte fragment
//!   (load-feature-word / materialize-immediate / sign-flip / compare /
//!   branch / return-leaf), stitched sequentially with branch targets
//!   patched as `rel32` offsets after emission. Every tree of a forest
//!   lands in one contiguous code buffer with per-tree entry offsets.
//! * `CodeBuf` (x86-64 Linux only) — the executable memory island:
//!   `mmap(PROT_READ|PROT_WRITE)` → copy code →
//!   `mprotect(PROT_READ|PROT_EXEC)`, so no page is ever writable and
//!   executable at once (W^X). Raw `extern "C"` declarations — std
//!   already links libc; no new dependency.
//! * [`TieredJit`] — the tier, fixed when the engine is built: the
//!   forest is compiled to the **native** tier up front, so the emit
//!   and map cost is paid at startup and every row runs emitted code.
//!   If the target is not x86-64 Linux or the mapping fails (also
//!   forced by the [`FORCE_FALLBACK_ENV`] test knob), it serves the
//!   bytecode interpreter as the **fallback** tier instead —
//!   bit-identical answers, just slower. [`TieredJit::describe`]
//!   reports which tier serves and, on the fallback tier, why.
//!
//! ## Emitted code shape
//!
//! Each tree becomes one `extern "C" fn(*const f32) -> u32`: `rdi`
//! holds the feature pointer, `eax` returns the class. The generated
//! body uses only `esi` (loaded feature word), `edx` (materialized
//! threshold key), `xmm0`/`xmm1` (float family) — caller-saved
//! registers, so there is no prologue, no stack frame and no call: a
//! root-to-leaf run is exactly the Listing-5 instruction sequence.
//!
//! Comparison semantics match the interpreter bit for bit:
//!
//! * integer family: `cmp esi, edx` then `jg`/`jl` — the signed
//!   compare of the FLInt order keys;
//! * float family: `ucomiss xmm0, xmm1` then `ja`. `ja` is taken iff
//!   `x > y` with no unordered operand, so a NaN feature falls to the
//!   left child — exactly the interpreter's `flag_gt = x > y` (false
//!   for NaN).

use flint_codegen::{Instr, TreeProgram, VmForest, VmVariant};
use flint_forest::RandomForest;

/// Comparison family a JIT engine compiles with — the JIT analogue of
/// the interpreter's [`VmVariant`] (the softfloat variant calls a
/// runtime routine and is interpreter-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JitCompare {
    /// FLInt integer order-key compares (`cmp` + `jg`/`jl`).
    Flint,
    /// Native float compares (`ucomiss` + `ja`).
    Float,
}

impl JitCompare {
    /// The tree-program variant this family compiles.
    pub fn variant(self) -> VmVariant {
        match self {
            JitCompare::Flint => VmVariant::Flint,
            JitCompare::Float => VmVariant::NativeFloat,
        }
    }
}

/// Environment knob forcing executable-memory allocation to fail, so
/// the interpreter-fallback path is testable on machines where `mmap`
/// works. Checked once per compile, when the engine is built; any
/// non-empty value triggers the failure.
pub const FORCE_FALLBACK_ENV: &str = "FLINT_JIT_FORCE_FALLBACK";

/// `true` when this build can execute emitted code: the target is
/// x86-64 Linux. When `false`, the `jit`/`jit-float` engines still
/// build and answer — permanently on the interpreter fallback tier.
pub fn jit_supported() -> bool {
    cfg!(all(target_arch = "x86_64", target_os = "linux"))
}

/// Error lowering or mapping a JIT program.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum JitError {
    /// This build cannot execute emitted code (not x86-64 Linux);
    /// callers fall back to the interpreter.
    UnsupportedPlatform,
    /// The [`FORCE_FALLBACK_ENV`] knob is set (test-only failure
    /// injection).
    ForcedFallback,
    /// `mmap` or `mprotect` refused the executable mapping.
    MapFailed,
    /// The program contains an instruction with no x86-64 template
    /// (e.g. the 64-bit or softfloat forms, which are interpreter-only).
    UnsupportedInstr {
        /// Name of the untemplated instruction.
        instr: &'static str,
    },
    /// A register outside the two-register Listing-5 shape.
    BadRegister,
    /// A branch target outside the program.
    BadBranchTarget {
        /// The offending instruction index.
        target: u32,
    },
    /// A conditional branch not preceded by a compare (malformed
    /// program; never produced by the lowering).
    BranchWithoutCompare,
    /// A feature offset at or past the declared feature count — the
    /// emitted loads would read out of bounds, so compilation refuses.
    FeatureOutOfRange {
        /// The offending feature index.
        offset: u32,
        /// The declared feature vector length.
        n_features: usize,
    },
}

impl core::fmt::Display for JitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::UnsupportedPlatform => {
                write!(f, "JIT unsupported on this build/platform")
            }
            Self::ForcedFallback => {
                write!(f, "JIT disabled by {FORCE_FALLBACK_ENV}")
            }
            Self::MapFailed => write!(f, "executable memory mapping failed"),
            Self::UnsupportedInstr { instr } => {
                write!(f, "no x86-64 template for instruction {instr}")
            }
            Self::BadRegister => write!(f, "register outside the two-register program shape"),
            Self::BadBranchTarget { target } => {
                write!(f, "branch target {target} outside the program")
            }
            Self::BranchWithoutCompare => {
                write!(f, "conditional branch without a preceding compare")
            }
            Self::FeatureOutOfRange { offset, n_features } => {
                write!(
                    f,
                    "feature offset {offset} outside the {n_features}-feature vector"
                )
            }
        }
    }
}

impl std::error::Error for JitError {}

/// `ModRM.rm` bits for `[rdi + disp32]` addressing (`mod = 10`).
const RDI_DISP32: u8 = 0x80 | 0x07;

/// Integer program register → x86-64 register bits: reg 1 is `esi`,
/// reg 2 is `edx` (both caller-saved, neither aliases `rdi`/`eax`).
fn int_reg(r: u8) -> Result<u8, JitError> {
    match r {
        1 => Ok(6), // esi
        2 => Ok(2), // edx
        _ => Err(JitError::BadRegister),
    }
}

/// Float program register → xmm register bits: reg 1 is `xmm0`, reg 2
/// is `xmm1`.
fn xmm_reg(r: u8) -> Result<u8, JitError> {
    match r {
        1 => Ok(0),
        2 => Ok(1),
        _ => Err(JitError::BadRegister),
    }
}

/// Byte displacement of feature `offset`, bounds-checked against the
/// feature vector the emitted loads will index.
fn feature_disp(offset: u32, n_features: usize) -> Result<i32, JitError> {
    if (offset as usize) < n_features {
        // n_features-bounded offsets times four always fit an i32 for
        // any feature vector that fits in memory.
        i32::try_from(u64::from(offset) * 4)
            .map_err(|_| JitError::FeatureOutOfRange { offset, n_features })
    } else {
        Err(JitError::FeatureOutOfRange { offset, n_features })
    }
}

/// Which compare family most recently set the flags — decides the
/// branch template (`jg`/`jl` consume integer flags, `ja` consumes the
/// `ucomiss` carry/zero encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpFamily {
    None,
    Int,
    Float,
}

/// A forest's tree programs emitted as x86-64 machine code: one
/// contiguous byte buffer plus per-tree entry offsets. Produced by the
/// portable template emitter — building this value involves no unsafe
/// code and works on every platform; only *executing* it requires the
/// `CodeBuf` mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmittedCode {
    code: Vec<u8>,
    entries: Vec<usize>,
}

impl EmittedCode {
    /// Emits every program into one buffer, recording each tree's entry
    /// offset. `n_features` bounds the feature loads the code will
    /// perform (callers must pass feature slices of exactly that
    /// length).
    ///
    /// # Errors
    ///
    /// [`JitError`] if a program contains an untemplated instruction,
    /// an out-of-shape register, a malformed branch, or a feature
    /// offset at or past `n_features`.
    pub fn emit(programs: &[TreeProgram], n_features: usize) -> Result<Self, JitError> {
        let mut code = Vec::new();
        let mut entries = Vec::with_capacity(programs.len());
        for program in programs {
            entries.push(code.len());
            emit_program(&mut code, program, n_features)?;
        }
        Ok(Self { code, entries })
    }

    /// The emitted machine code.
    pub fn code(&self) -> &[u8] {
        &self.code
    }

    /// Per-tree entry offsets into [`code`](Self::code), in tree order.
    pub fn entries(&self) -> &[usize] {
        &self.entries
    }
}

/// Emits one program's templates into `code`, then patches every
/// branch's `rel32` once all instruction byte offsets are known.
fn emit_program(
    code: &mut Vec<u8>,
    program: &TreeProgram,
    n_features: usize,
) -> Result<(), JitError> {
    let instrs = program.instrs();
    // Byte offset (within `code`) where each instruction's template
    // starts — the patch table for branch targets.
    let mut offsets = vec![0usize; instrs.len()];
    // (position of a rel32 placeholder, target instruction index).
    let mut fixups: Vec<(usize, u32)> = Vec::new();
    let mut last_cmp = CmpFamily::None;
    let branch_to =
        |code: &mut Vec<u8>, fixups: &mut Vec<(usize, u32)>, target: u32| -> Result<(), JitError> {
            if target as usize >= instrs.len() {
                return Err(JitError::BadBranchTarget { target });
            }
            fixups.push((code.len(), target));
            code.extend_from_slice(&[0; 4]);
            Ok(())
        };
    for (idx, instr) in instrs.iter().enumerate() {
        offsets[idx] = code.len();
        match *instr {
            Instr::LoadWord { dst, offset } => {
                // mov r32, [rdi + offset*4] — the feature word as its
                // integer bit pattern.
                let disp = feature_disp(offset, n_features)?;
                code.push(0x8B);
                code.push(RDI_DISP32 | (int_reg(dst)? << 3));
                code.extend_from_slice(&disp.to_le_bytes());
            }
            Instr::LoadFloat { dst, offset } => {
                // movss xmm, [rdi + offset*4]
                let disp = feature_disp(offset, n_features)?;
                code.extend_from_slice(&[0xF3, 0x0F, 0x10]);
                code.push(RDI_DISP32 | (xmm_reg(dst)? << 3));
                code.extend_from_slice(&disp.to_le_bytes());
            }
            Instr::Movz { dst, imm } => {
                // mov r32, imm32 — zero-extends the 16-bit immediate
                // like movz, and clears the upper half the following
                // Movk template merges into.
                code.push(0xB8 + int_reg(dst)?);
                code.extend_from_slice(&u32::from(imm).to_le_bytes());
            }
            Instr::Movk { dst, imm, shift } => {
                if shift != 16 {
                    // 64-bit four-part immediates are interpreter-only.
                    return Err(JitError::UnsupportedInstr {
                        instr: "Movk{shift>16}",
                    });
                }
                // Compositional movk: clear bits 16..32, then OR the
                // field in — correct regardless of the register's prior
                // contents, like the real movk.
                let r = int_reg(dst)?;
                code.extend_from_slice(&[0x81, 0xE0 | r]); // and r32, 0x0000FFFF
                code.extend_from_slice(&0x0000_FFFFu32.to_le_bytes());
                code.extend_from_slice(&[0x81, 0xC8 | r]); // or r32, imm<<16
                code.extend_from_slice(&(u32::from(imm) << 16).to_le_bytes());
            }
            Instr::LoadFloatConst { dst, value } => {
                // mov edx, bits ; movd xmm, edx — materialize the
                // threshold without a literal pool (no data section to
                // relocate). edx is free scratch here: float-family
                // programs contain no integer compares.
                code.push(0xBA);
                code.extend_from_slice(&value.to_bits().to_le_bytes());
                code.extend_from_slice(&[0x66, 0x0F, 0x6E]);
                code.push(0xC0 | (xmm_reg(dst)? << 3) | 0x02);
            }
            Instr::EorSign { dst } => {
                // xor r32, 0x80000000 — the FLInt negative-threshold
                // sign flip.
                code.extend_from_slice(&[0x81, 0xF0 | int_reg(dst)?]);
                code.extend_from_slice(&0x8000_0000u32.to_le_bytes());
            }
            Instr::Cmp { a, b } => {
                // cmp r/m32(a), r32(b) — signed flags for a vs b.
                code.push(0x39);
                code.push(0xC0 | (int_reg(b)? << 3) | int_reg(a)?);
                last_cmp = CmpFamily::Int;
            }
            Instr::Fcmp { a, b } => {
                // ucomiss xmm(a), xmm(b)
                code.extend_from_slice(&[0x0F, 0x2E]);
                code.push(0xC0 | (xmm_reg(a)? << 3) | xmm_reg(b)?);
                last_cmp = CmpFamily::Float;
            }
            Instr::BranchGt { target } => {
                match last_cmp {
                    // jg — signed greater-than over the integer flags.
                    CmpFamily::Int => code.extend_from_slice(&[0x0F, 0x8F]),
                    // ja — above over the ucomiss flags: taken iff
                    // x > y ordered, NOT taken on NaN, exactly the
                    // interpreter's flag_gt.
                    CmpFamily::Float => code.extend_from_slice(&[0x0F, 0x87]),
                    CmpFamily::None => return Err(JitError::BranchWithoutCompare),
                }
                branch_to(code, &mut fixups, target)?;
            }
            Instr::BranchLt { target } => {
                match last_cmp {
                    // jl — signed less-than; the lowering only emits
                    // BranchLt in the integer family (flipped-sign
                    // FLInt splits).
                    CmpFamily::Int => code.extend_from_slice(&[0x0F, 0x8C]),
                    CmpFamily::Float | CmpFamily::None => {
                        return Err(JitError::BranchWithoutCompare)
                    }
                }
                branch_to(code, &mut fixups, target)?;
            }
            Instr::Jump { target } => {
                code.push(0xE9);
                branch_to(code, &mut fixups, target)?;
            }
            Instr::Ret { class } => {
                // mov eax, class ; ret
                code.push(0xB8);
                code.extend_from_slice(&class.to_le_bytes());
                code.push(0xC3);
            }
            Instr::LoadDword { .. } => {
                return Err(JitError::UnsupportedInstr { instr: "LoadDword" })
            }
            Instr::LoadDouble { .. } => {
                return Err(JitError::UnsupportedInstr {
                    instr: "LoadDouble",
                })
            }
            Instr::LoadDoubleConst { .. } => {
                return Err(JitError::UnsupportedInstr {
                    instr: "LoadDoubleConst",
                })
            }
            Instr::EorSign64 { .. } => {
                return Err(JitError::UnsupportedInstr { instr: "EorSign64" })
            }
            Instr::Cmp64 { .. } => return Err(JitError::UnsupportedInstr { instr: "Cmp64" }),
            Instr::SoftCmp { .. } => return Err(JitError::UnsupportedInstr { instr: "SoftCmp" }),
            Instr::SoftCmp64 { .. } => {
                return Err(JitError::UnsupportedInstr { instr: "SoftCmp64" })
            }
        }
    }
    for (pos, target) in fixups {
        let rel = offsets[target as usize] as i64 - (pos as i64 + 4);
        let rel = i32::try_from(rel).map_err(|_| JitError::BadBranchTarget { target })?;
        code[pos..pos + 4].copy_from_slice(&rel.to_le_bytes());
    }
    Ok(())
}

/// The executable-memory half: only compiled where emitted code can
/// actually run. Everything `unsafe` in the JIT lives here, behind the
/// same explicit-allow pattern as the AVX2 kernel island.
///
/// Soundness argument for executing emitted code:
///
/// * `CodeBuf::map` copies the emitter's output into a fresh anonymous
///   private mapping and flips it `PROT_READ|PROT_EXEC` before any call
///   (W^X: never writable and executable at once);
/// * every entry offset comes from [`EmittedCode::entries`], so each
///   points at a `mov`/`movss` template head emitted for that tree, and
///   every branch inside a tree was patched to another instruction head
///   of the same tree — control flow cannot leave the buffer except
///   through `ret`;
/// * the generated code reads only `[rdi + offset*4]` with `offset`
///   checked against `n_features` at emit time, and
///   [`JitForest::predict`] asserts the feature slice is exactly
///   `n_features` long before passing its pointer;
/// * only caller-saved registers (`eax`, `esi`, `edx`, `xmm0`, `xmm1`)
///   are written and the stack is untouched, so the `extern "C"` call
///   contract holds trivially.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[allow(unsafe_code)]
mod native {
    use super::JitError;

    /// Raw libc bindings — the container is offline, but std links libc
    /// already, so declaring the three calls we need costs nothing.
    mod sys {
        use core::ffi::c_void;

        pub const PROT_READ: i32 = 1;
        pub const PROT_WRITE: i32 = 2;
        pub const PROT_EXEC: i32 = 4;
        pub const MAP_PRIVATE: i32 = 2;
        pub const MAP_ANONYMOUS: i32 = 0x20;

        extern "C" {
            pub fn mmap(
                addr: *mut c_void,
                len: usize,
                prot: i32,
                flags: i32,
                fd: i32,
                offset: i64,
            ) -> *mut c_void;
            pub fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
            pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        }
    }

    /// An owned `PROT_READ|PROT_EXEC` mapping holding emitted code.
    pub struct CodeBuf {
        ptr: *mut u8,
        len: usize,
    }

    // SAFETY: after `map` returns, the mapping is read+execute only and
    // is never written again; concurrent reads/calls from any thread
    // are data-race-free, and the pointer is exclusively owned (unmap
    // happens only in Drop).
    unsafe impl Send for CodeBuf {}
    // SAFETY: as above — the mapping is immutable for the lifetime of
    // the value.
    unsafe impl Sync for CodeBuf {}

    impl core::fmt::Debug for CodeBuf {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.debug_struct("CodeBuf").field("len", &self.len).finish()
        }
    }

    impl CodeBuf {
        /// Maps `code` into fresh executable memory (W^X: written while
        /// `PROT_READ|PROT_WRITE`, then sealed `PROT_READ|PROT_EXEC`).
        ///
        /// # Errors
        ///
        /// [`JitError::ForcedFallback`] under the test knob,
        /// [`JitError::MapFailed`] if the kernel refuses the mapping or
        /// the protection flip.
        pub fn map(code: &[u8]) -> Result<Self, JitError> {
            if std::env::var_os(super::FORCE_FALLBACK_ENV).is_some_and(|v| !v.is_empty()) {
                return Err(JitError::ForcedFallback);
            }
            assert!(!code.is_empty(), "emitted code is never empty");
            let len = code.len();
            // SAFETY: anonymous private mapping with a null hint — no
            // aliasing with any existing Rust allocation; arguments
            // follow the mmap(2) contract.
            let ptr = unsafe {
                sys::mmap(
                    core::ptr::null_mut(),
                    len,
                    sys::PROT_READ | sys::PROT_WRITE,
                    sys::MAP_PRIVATE | sys::MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            if ptr as isize == -1 || ptr.is_null() {
                return Err(JitError::MapFailed);
            }
            let ptr = ptr.cast::<u8>();
            // SAFETY: the mapping is len bytes, freshly owned and
            // writable; `code` cannot overlap a page the kernel just
            // invented.
            unsafe { core::ptr::copy_nonoverlapping(code.as_ptr(), ptr, len) };
            // SAFETY: ptr is page-aligned (returned by mmap) and the
            // range is exactly the mapping we own.
            let sealed = unsafe { sys::mprotect(ptr.cast(), len, sys::PROT_READ | sys::PROT_EXEC) };
            if sealed != 0 {
                // SAFETY: unmapping the mapping created above; no
                // pointers into it have escaped.
                unsafe { sys::munmap(ptr.cast(), len) };
                return Err(JitError::MapFailed);
            }
            Ok(Self { ptr, len })
        }

        /// Base address of the mapping.
        pub fn as_ptr(&self) -> *const u8 {
            self.ptr
        }

        /// Mapping length in bytes.
        pub fn len(&self) -> usize {
            self.len
        }
    }

    impl Drop for CodeBuf {
        fn drop(&mut self) {
            // SAFETY: we own the mapping; `call` borrows the CodeBuf for
            // the duration of every emitted-function call, so no thread
            // can be executing the pages once Drop runs.
            unsafe {
                sys::munmap(self.ptr.cast(), self.len);
            }
        }
    }

    /// The ABI every emitted tree function has: `rdi` = feature
    /// pointer, `eax` = predicted class.
    type TreeFn = unsafe extern "C" fn(*const f32) -> u32;

    /// Calls the emitted function at `entry`.
    ///
    /// # Safety
    ///
    /// `entry` must be an entry offset recorded by the emitter for this
    /// buffer's code, and `features` must point at least as many `f32`s
    /// as the `n_features` the code was emitted against.
    pub unsafe fn call(buf: &CodeBuf, entry: usize, features: *const f32) -> u32 {
        debug_assert!(entry < buf.len());
        // SAFETY: per this function's contract, `entry` addresses an
        // emitted function head inside the RX mapping and `features`
        // covers every offset the code loads (checked at emit time).
        unsafe {
            let f: TreeFn = core::mem::transmute(buf.as_ptr().add(entry));
            f(features)
        }
    }
}

/// A forest compiled to native x86-64 code: one executable mapping, one
/// entry per tree, majority-vote aggregation identical to every other
/// engine.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[derive(Debug)]
pub struct JitForest {
    buf: native::CodeBuf,
    entries: Vec<usize>,
    n_features: usize,
    n_classes: usize,
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
impl JitForest {
    /// Lowers every tree of `forest` under `compare` (the exact
    /// programs the interpreter executes — shared lowering), then
    /// emits and maps them.
    ///
    /// # Errors
    ///
    /// [`JitError`] if emission or the executable mapping fails.
    pub fn compile(forest: &RandomForest, compare: JitCompare) -> Result<Self, JitError> {
        let programs = TreeProgram::compile_forest(forest, compare.variant());
        let emitted = EmittedCode::emit(&programs, forest.n_features())?;
        Ok(Self {
            buf: native::CodeBuf::map(emitted.code())?,
            entries: emitted.entries().to_vec(),
            n_features: forest.n_features(),
            n_classes: forest.n_classes(),
        })
    }

    /// Expected feature vector length.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes voted over.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Majority-vote prediction over the native tree functions.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features()`.
    pub fn predict(&self, features: &[f32]) -> u32 {
        flint_forest::metrics::majority_vote(&self.predict_votes(features))
    }

    /// Per-class vote histogram (one vote per native tree function) —
    /// the partial a forest shard reports for distributed merge.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features()`.
    pub fn predict_votes(&self, features: &[f32]) -> Vec<u32> {
        assert_eq!(
            features.len(),
            self.n_features,
            "feature vector length (JIT code loads up to n_features words)"
        );
        let mut votes = vec![0u32; self.n_classes];
        for &entry in &self.entries {
            // SAFETY: `entry` comes from the emitter for this buffer,
            // and the assert above guarantees `features` covers every
            // offset the emitted loads index.
            #[allow(unsafe_code)]
            let class = unsafe { native::call(&self.buf, entry, features.as_ptr()) };
            votes[class as usize] += 1;
        }
        votes
    }
}

/// Fallback stand-in where emitted code cannot run: carries no code and
/// cannot be constructed — [`TieredJit`] stays on the interpreter tier.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
#[derive(Debug)]
pub struct JitForest {
    never: core::convert::Infallible,
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
impl JitForest {
    /// Always [`JitError::UnsupportedPlatform`] on this build.
    ///
    /// # Errors
    ///
    /// Always errs.
    pub fn compile(_forest: &RandomForest, _compare: JitCompare) -> Result<Self, JitError> {
        Err(JitError::UnsupportedPlatform)
    }

    /// Unreachable: the type is uninhabited on this build.
    pub fn n_features(&self) -> usize {
        match self.never {}
    }

    /// Unreachable: the type is uninhabited on this build.
    pub fn n_classes(&self) -> usize {
        match self.never {}
    }

    /// Unreachable: the type is uninhabited on this build.
    pub fn predict(&self, _features: &[f32]) -> u32 {
        match self.never {}
    }

    /// Unreachable: the type is uninhabited on this build.
    pub fn predict_votes(&self, _features: &[f32]) -> Vec<u32> {
        match self.never {}
    }
}

/// Which tier a [`TieredJit`] serves from, fixed when it is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JitTier {
    /// Compiled: executing native x86-64 code.
    Native,
    /// Compilation failed (wrong platform, mapping refused):
    /// interpreting.
    Fallback,
}

/// What a [`TieredJit`] runs: the compiled forest, or the interpreter
/// and the reason compilation failed. Both execute the same shared
/// [`TreeProgram`] lowering, so answers are bit-identical across tiers
/// by construction.
#[derive(Debug)]
enum Code {
    Native(JitForest),
    Fallback(VmForest, JitError),
}

/// The JIT engine's execution policy: compile the forest to native
/// code when built, or interpret it where the platform can't execute
/// emitted code. The tier never changes afterwards.
#[derive(Debug)]
pub struct TieredJit {
    code: Code,
    compare: JitCompare,
    n_features: usize,
    n_classes: usize,
}

impl TieredJit {
    /// Compiles `forest` to native code, keeping the interpreter
    /// programs only if compilation fails.
    pub fn new(forest: &RandomForest, compare: JitCompare) -> Self {
        let code = match JitForest::compile(forest, compare) {
            Ok(native) => Code::Native(native),
            Err(why) => Code::Fallback(VmForest::compile(forest, compare.variant()), why),
        };
        Self {
            code,
            compare,
            n_features: forest.n_features(),
            n_classes: forest.n_classes(),
        }
    }

    /// The comparison family this engine compiles.
    pub fn compare(&self) -> JitCompare {
        self.compare
    }

    /// Expected feature vector length.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes voted over.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The tier serving predictions.
    pub fn tier(&self) -> JitTier {
        match self.code {
            Code::Native(_) => JitTier::Native,
            Code::Fallback(..) => JitTier::Fallback,
        }
    }

    /// One-line description of family, serving tier and, on the
    /// fallback tier, why compilation failed (each a fixed string, so
    /// engine `describe()` stays `&'static str`).
    pub fn describe(&self) -> &'static str {
        let [native, platform, mapping, forced, program] = match self.compare {
            JitCompare::Flint => [
                "template JIT to x86-64, FLInt integer compares — native tier: emitted machine code",
                "template JIT to x86-64, FLInt integer compares — fallback tier: interpreter (this platform cannot run emitted code)",
                "template JIT to x86-64, FLInt integer compares — fallback tier: interpreter (executable mapping refused)",
                "template JIT to x86-64, FLInt integer compares — fallback tier: interpreter (FLINT_JIT_FORCE_FALLBACK set)",
                "template JIT to x86-64, FLInt integer compares — fallback tier: interpreter (program not compilable)",
            ],
            JitCompare::Float => [
                "template JIT to x86-64, float ucomiss compares — native tier: emitted machine code",
                "template JIT to x86-64, float ucomiss compares — fallback tier: interpreter (this platform cannot run emitted code)",
                "template JIT to x86-64, float ucomiss compares — fallback tier: interpreter (executable mapping refused)",
                "template JIT to x86-64, float ucomiss compares — fallback tier: interpreter (FLINT_JIT_FORCE_FALLBACK set)",
                "template JIT to x86-64, float ucomiss compares — fallback tier: interpreter (program not compilable)",
            ],
        };
        match &self.code {
            Code::Native(_) => native,
            Code::Fallback(_, JitError::UnsupportedPlatform) => platform,
            Code::Fallback(_, JitError::MapFailed) => mapping,
            Code::Fallback(_, JitError::ForcedFallback) => forced,
            Code::Fallback(..) => program,
        }
    }

    /// Majority-vote prediction through the serving tier.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features()`.
    pub fn predict(&self, features: &[f32]) -> u32 {
        flint_forest::metrics::majority_vote(&self.predict_votes(features))
    }

    /// Per-class vote histogram through the serving tier — both tiers
    /// count one vote per tree over the same shared lowering, so the
    /// histogram is tier-independent.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features()`.
    pub fn predict_votes(&self, features: &[f32]) -> Vec<u32> {
        assert_eq!(features.len(), self.n_features, "feature vector length");
        match &self.code {
            Code::Native(native) => native.predict_votes(features),
            Code::Fallback(interp, _) => {
                interp
                    .run_votes(features)
                    .expect("compiled VM programs run to a return")
                    .0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flint_data::synth::SynthSpec;
    use flint_forest::{example_tree, ForestConfig};

    fn forest() -> (flint_data::Dataset, RandomForest) {
        let data = SynthSpec::new(200, 5, 3)
            .negative_fraction(0.5)
            .seed(33)
            .generate();
        let forest = RandomForest::fit(&data, &ForestConfig::grid(6, 7)).expect("trainable");
        (data, forest)
    }

    #[test]
    fn emitter_templates_have_the_expected_heads() {
        let tree = example_tree();
        let program = TreeProgram::compile(&tree, VmVariant::Flint);
        let emitted = EmittedCode::emit(std::slice::from_ref(&program), 2).expect("emits");
        assert_eq!(emitted.entries(), &[0]);
        // The program opens with LoadWord{dst:1, offset:0}:
        // mov esi, [rdi+0] = 8B B7 00 00 00 00.
        assert_eq!(&emitted.code()[..6], &[0x8B, 0xB7, 0, 0, 0, 0]);
        // Every emitted tree ends in ret.
        assert_eq!(*emitted.code().last().expect("nonempty"), 0xC3);
    }

    #[test]
    fn emitter_packs_forests_with_monotonic_entries() {
        let (_, forest) = forest();
        let programs = TreeProgram::compile_forest(&forest, VmVariant::Flint);
        let emitted = EmittedCode::emit(&programs, forest.n_features()).expect("emits");
        assert_eq!(emitted.entries().len(), forest.n_trees());
        for pair in emitted.entries().windows(2) {
            assert!(pair[0] < pair[1], "entries must be monotonic");
        }
        // Each entry starts at a fresh template head: the integer
        // family always opens with either mov r32,[rdi+disp] (0x8B) or
        // a leaf-only mov eax (0xB8).
        for &entry in emitted.entries() {
            assert!(matches!(emitted.code()[entry], 0x8B | 0xB8));
        }
    }

    #[test]
    fn emitter_rejects_out_of_range_features() {
        let tree = example_tree(); // uses features 0 and 1
        let program = TreeProgram::compile(&tree, VmVariant::Flint);
        let err = EmittedCode::emit(std::slice::from_ref(&program), 1).unwrap_err();
        assert_eq!(
            err,
            JitError::FeatureOutOfRange {
                offset: 1,
                n_features: 1
            }
        );
    }

    #[test]
    fn emitter_rejects_interpreter_only_instructions() {
        let tree = example_tree();
        let soft = TreeProgram::compile(&tree, VmVariant::SoftFloat);
        assert_eq!(
            EmittedCode::emit(std::slice::from_ref(&soft), 2).unwrap_err(),
            JitError::UnsupportedInstr { instr: "SoftCmp" }
        );
        let wide = TreeProgram::compile_f64(&tree, VmVariant::Flint);
        assert!(EmittedCode::emit(std::slice::from_ref(&wide), 2).is_err());
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    mod native_exec {
        use super::*;

        #[test]
        fn jit_forest_matches_the_forest_majority_vote() {
            let (data, forest) = forest();
            for compare in [JitCompare::Flint, JitCompare::Float] {
                let jit = JitForest::compile(&forest, compare).expect("compiles");
                assert_eq!(jit.n_features(), forest.n_features());
                assert_eq!(jit.n_classes(), forest.n_classes());
                for i in 0..data.n_samples() {
                    assert_eq!(
                        jit.predict(data.sample(i)),
                        forest.predict_majority(data.sample(i)),
                        "{compare:?} sample {i}"
                    );
                }
            }
        }

        #[test]
        fn jit_matches_interpreter_bit_for_bit_on_adversarial_inputs() {
            let (_, forest) = forest();
            for compare in [JitCompare::Flint, JitCompare::Float] {
                let jit = JitForest::compile(&forest, compare).expect("compiles");
                let vm = VmForest::compile(&forest, compare.variant());
                for pattern in [
                    [0.0f32; 5],
                    [-0.0; 5],
                    [f32::MIN_POSITIVE; 5],
                    [-f32::MIN_POSITIVE; 5],
                    [f32::MAX, f32::MIN, 0.5, -0.5, 1e-38],
                    [1e30, -1e30, 3.25, -3.25, 0.1],
                ] {
                    assert_eq!(
                        jit.predict(&pattern),
                        vm.run(&pattern).expect("runs").0,
                        "{compare:?} {pattern:?}"
                    );
                }
            }
        }

        #[test]
        fn new_compiles_to_the_native_tier() {
            let (data, forest) = forest();
            let tiered = TieredJit::new(&forest, JitCompare::Flint);
            assert_eq!(tiered.tier(), JitTier::Native);
            assert!(tiered.describe().contains("native tier"));
            let class = tiered.predict(data.sample(3));
            assert_eq!(class, forest.predict_majority(data.sample(3)));
        }

        #[test]
        fn native_tier_agrees_with_the_interpreter_on_every_sample() {
            let (data, forest) = forest();
            for compare in [JitCompare::Flint, JitCompare::Float] {
                let native = TieredJit::new(&forest, compare);
                let interp = VmForest::compile(&forest, compare.variant());
                assert_eq!(native.tier(), JitTier::Native);
                for i in 0..data.n_samples() {
                    assert_eq!(
                        native.predict_votes(data.sample(i)),
                        interp.run_votes(data.sample(i)).expect("runs").0,
                        "{compare:?} sample {i}"
                    );
                }
            }
        }
    }
}
