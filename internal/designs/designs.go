// Package designs generates the 21-design benchmark suite used in the
// paper's evaluation (Table 3). The original suite mixes ITC'99 (VHDL),
// OpenCores (Verilog), Chipyard (Chisel) and VexRiscv (SpinalHDL) designs;
// since RTL-Timer consumes the bit-level operator graph rather than HDL
// syntax, this package emits structurally equivalent synthesizable Verilog
// for every family: crypto substitution-permutation pipelines (syscdes,
// syscaes), FSM-plus-datapath controllers (ITC'99 b*), CPU-style pipelines
// with bypass networks (Rocket*, Vex*), a crossbar interconnect (conmax),
// a floating-point datapath (FPU) and a MAC-heavy DSP (Marax). Designs are
// deterministic functions of their seed, and a scale knob grows them for
// larger experiments.
package designs

import (
	"fmt"
	"math/rand"
	"strings"
)

// Spec describes one benchmark design.
type Spec struct {
	Name   string
	Family string // ITC99 | OpenCores | Chipyard | VexRiscv
	HDL    string // HDL of the original benchmark (informational)
	Seed   int64
	Scale  int // >= 1; grows rounds/widths/lanes
}

// All returns the 21 benchmark specs with the paper's design names
// (Table 6 rows), ordered as in the paper.
func All() []Spec {
	return []Spec{
		{Name: "syscdes", Family: "OpenCores", HDL: "Verilog", Seed: 101, Scale: 1},
		{Name: "syscaes", Family: "OpenCores", HDL: "Verilog", Seed: 102, Scale: 2},
		{Name: "Vex_1", Family: "VexRiscv", HDL: "SpinalHDL", Seed: 201, Scale: 1},
		{Name: "b20", Family: "ITC99", HDL: "VHDL", Seed: 301, Scale: 1},
		{Name: "Vex_2", Family: "VexRiscv", HDL: "SpinalHDL", Seed: 202, Scale: 2},
		{Name: "Vex_3", Family: "VexRiscv", HDL: "SpinalHDL", Seed: 203, Scale: 2},
		{Name: "b22", Family: "ITC99", HDL: "VHDL", Seed: 302, Scale: 1},
		{Name: "b17", Family: "ITC99", HDL: "VHDL", Seed: 303, Scale: 2},
		{Name: "b17_1", Family: "ITC99", HDL: "VHDL", Seed: 304, Scale: 2},
		{Name: "Rocket1", Family: "Chipyard", HDL: "Chisel", Seed: 401, Scale: 2},
		{Name: "Rocket2", Family: "Chipyard", HDL: "Chisel", Seed: 402, Scale: 2},
		{Name: "Rocket3", Family: "Chipyard", HDL: "Chisel", Seed: 403, Scale: 3},
		{Name: "conmax", Family: "OpenCores", HDL: "Verilog", Seed: 103, Scale: 2},
		{Name: "b18", Family: "ITC99", HDL: "VHDL", Seed: 305, Scale: 3},
		{Name: "b18_1", Family: "ITC99", HDL: "VHDL", Seed: 306, Scale: 3},
		{Name: "FPU", Family: "OpenCores", HDL: "Verilog", Seed: 104, Scale: 2},
		{Name: "Marax", Family: "VexRiscv", HDL: "SpinalHDL", Seed: 105, Scale: 2}, // Murax SoC
		{Name: "Vex_4", Family: "VexRiscv", HDL: "SpinalHDL", Seed: 204, Scale: 3},
		{Name: "Vex5", Family: "VexRiscv", HDL: "SpinalHDL", Seed: 205, Scale: 3},
		{Name: "Vex6", Family: "VexRiscv", HDL: "SpinalHDL", Seed: 206, Scale: 4},
		{Name: "Vex7", Family: "VexRiscv", HDL: "SpinalHDL", Seed: 207, Scale: 4},
	}
}

// ByName returns the spec with the given name.
func ByName(name string) (Spec, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Generate emits the Verilog source of a design.
func Generate(spec Spec) string {
	if spec.Scale < 1 {
		spec.Scale = 1
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	switch spec.Family {
	case "OpenCores":
		switch {
		case strings.HasPrefix(spec.Name, "sysc"):
			return genCrypto(spec, rng)
		case spec.Name == "conmax":
			return genCrossbar(spec, rng)
		case spec.Name == "FPU":
			return genFPU(spec, rng)
		default:
			return genMAC(spec, rng)
		}
	case "ITC99":
		return genController(spec, rng)
	case "Chipyard":
		return genCPU(spec, rng, true)
	default: // VexRiscv
		if spec.Name == "Marax" {
			// Murax SoC: MAC-style peripheral datapath dominates.
			return genMAC(spec, rng)
		}
		return genCPU(spec, rng, false)
	}
}

// ---- shared emit helpers ----

type emitter struct {
	b strings.Builder
}

func (e *emitter) f(format string, args ...any) {
	fmt.Fprintf(&e.b, format, args...)
	e.b.WriteByte('\n')
}

// sboxModule emits a 4-bit substitution box as a standalone module with a
// randomized permutation table.
func sboxModule(e *emitter, name string, rng *rand.Rand) {
	perm := rng.Perm(16)
	e.f("module %s(input [3:0] x, output reg [3:0] y);", name)
	e.f("  always @(*) begin")
	e.f("    case (x)")
	for i, v := range perm {
		if i == 15 {
			e.f("      default: y = 4'd%d;", v)
		} else {
			e.f("      4'd%d: y = 4'd%d;", i, v)
		}
	}
	e.f("    endcase")
	e.f("  end")
	e.f("endmodule")
	e.f("")
}

// permute emits a fixed random bit permutation of src into dst (width w).
func permute(e *emitter, dst, src string, w int, rng *rand.Rand) {
	perm := rng.Perm(w)
	parts := make([]string, w)
	for i := 0; i < w; i++ {
		parts[i] = fmt.Sprintf("%s[%d]", src, perm[i])
	}
	// Concat is MSB-first.
	e.f("  assign %s = {%s};", dst, strings.Join(parts, ", "))
}

// ---- crypto family (syscdes / syscaes) ----

func genCrypto(spec Spec, rng *rand.Rand) string {
	e := &emitter{}
	width := 16 + 16*spec.Scale // block width, multiple of 4
	rounds := 3 + spec.Scale*2
	nSbox := width / 4
	e.f("// %s: substitution-permutation crypto pipeline (%d-bit, %d rounds)", spec.Name, width, rounds)
	sboxName := spec.Name + "_sbox"
	sboxModule(e, sboxName, rng)

	e.f("module %s(", spec.Name)
	e.f("  input clk,")
	e.f("  input rst,")
	e.f("  input [%d:0] din,", width-1)
	e.f("  input [%d:0] key,", width-1)
	e.f("  output [%d:0] dout", width-1)
	e.f(");")
	e.f("  reg [%d:0] keyreg;", width-1)
	// Round state is kept in quarter-width register slices (as RTL authors
	// often do for retiming freedom); this also yields a richer set of
	// named sequential signals for the signal-level tasks.
	q := width / 4
	for r := 0; r <= rounds; r++ {
		for k := 0; k < 4; k++ {
			e.f("  reg [%d:0] st%d_q%d;", q-1, r, k)
		}
		e.f("  wire [%d:0] st%d = {st%d_q3, st%d_q2, st%d_q1, st%d_q0};", width-1, r, r, r, r, r)
	}
	for r := 0; r < rounds; r++ {
		e.f("  wire [%d:0] mix%d = st%d ^ {keyreg[%d:0], keyreg[%d:%d]};", width-1, r, r, width-2-r, width-1, width-1-r)
		e.f("  wire [%d:0] sub%d;", width-1, r)
		for s := 0; s < nSbox; s++ {
			e.f("  %s u_s%d_%d (.x(mix%d[%d:%d]), .y(sub%d[%d:%d]));",
				sboxName, r, s, r, s*4+3, s*4, r, s*4+3, s*4)
		}
		e.f("  wire [%d:0] prm%d;", width-1, r)
		permute(e, fmt.Sprintf("prm%d", r), fmt.Sprintf("sub%d", r), width, rng)
	}
	e.f("  always @(posedge clk) begin")
	e.f("    if (rst) begin")
	e.f("      keyreg <= %d'd0;", width)
	for k := 0; k < 4; k++ {
		e.f("      st0_q%d <= %d'd0;", k, q)
	}
	e.f("    end else begin")
	e.f("      keyreg <= key;")
	for k := 0; k < 4; k++ {
		e.f("      st0_q%d <= din[%d:%d];", k, (k+1)*q-1, k*q)
	}
	e.f("    end")
	for r := 0; r < rounds; r++ {
		for k := 0; k < 4; k++ {
			e.f("    st%d_q%d <= prm%d[%d:%d];", r+1, k, r, (k+1)*q-1, k*q)
		}
	}
	e.f("  end")
	e.f("  assign dout = st%d;", rounds)
	e.f("endmodule")
	return e.b.String()
}

// ---- ITC'99-style controller (FSM + counters + comparators) ----

func genController(spec Spec, rng *rand.Rand) string {
	e := &emitter{}
	w := 8 + 4*spec.Scale
	nCnt := 2 + spec.Scale
	nStates := 5 + rng.Intn(6)
	e.f("// %s: FSM controller with %d counters (%d-bit datapath)", spec.Name, nCnt, w)
	e.f("module %s(", spec.Name)
	e.f("  input clk,")
	e.f("  input rst,")
	e.f("  input start,")
	e.f("  input [%d:0] limit,", w-1)
	e.f("  input [%d:0] data,", w-1)
	e.f("  output [%d:0] result,", w-1)
	e.f("  output done")
	e.f(");")
	e.f("  reg [3:0] state;")
	e.f("  reg [%d:0] acc;", w-1)
	e.f("  reg doneR;")
	for c := 0; c < nCnt; c++ {
		e.f("  reg [%d:0] cnt%d;", w-1, c)
	}
	// Comparators feeding the FSM.
	for c := 0; c < nCnt; c++ {
		e.f("  wire hit%d = cnt%d >= (limit >> %d);", c, c, rng.Intn(3))
	}
	e.f("  wire [%d:0] sum = acc + data;", w-1)
	e.f("  wire [%d:0] folded = sum ^ {sum[%d:%d], sum[%d:0]};", w-1, w/2-1, 0, w-1-w/2)
	e.f("  always @(posedge clk) begin")
	e.f("    if (rst) begin")
	e.f("      state <= 4'd0;")
	e.f("      acc <= %d'd0;", w)
	e.f("      doneR <= 1'b0;")
	for c := 0; c < nCnt; c++ {
		e.f("      cnt%d <= %d'd0;", c, w)
	}
	e.f("    end else begin")
	e.f("      case (state)")
	for s := 0; s < nStates; s++ {
		next := (s + 1) % nStates
		alt := rng.Intn(nStates)
		cond := fmt.Sprintf("hit%d", rng.Intn(nCnt))
		if s == 0 {
			cond = "start"
		}
		e.f("        4'd%d: begin", s)
		e.f("          if (%s) state <= 4'd%d;", cond, next)
		e.f("          else state <= 4'd%d;", alt)
		switch rng.Intn(4) {
		case 0:
			e.f("          acc <= sum;")
		case 1:
			e.f("          acc <= folded;")
		case 2:
			e.f("          acc <= acc ^ data;")
		default:
			e.f("          acc <= acc + cnt%d;", rng.Intn(nCnt))
		}
		e.f("        end")
	}
	e.f("        default: state <= 4'd0;")
	e.f("      endcase")
	for c := 0; c < nCnt; c++ {
		e.f("      if (state == 4'd%d) cnt%d <= cnt%d + %d'd1;", rng.Intn(nStates), c, c, w)
		e.f("      else if (hit%d) cnt%d <= %d'd0;", c, c, w)
	}
	e.f("      doneR <= state == 4'd%d;", nStates-1)
	e.f("    end")
	e.f("  end")
	e.f("  assign result = acc;")
	e.f("  assign done = doneR;")
	e.f("endmodule")
	return e.b.String()
}

// ---- CPU-style pipeline (Rocket* / Vex*) ----

func genCPU(spec Spec, rng *rand.Rand, rocket bool) string {
	e := &emitter{}
	w := 8 + 8*spec.Scale // data width
	if w > 32 {
		w = 32
	}
	nRegs := 4 // architectural registers modeled as discrete flops
	e.f("// %s: %d-bit in-order pipeline with bypass network", spec.Name, w)
	e.f("module %s(", spec.Name)
	e.f("  input clk,")
	e.f("  input rst,")
	e.f("  input [15:0] instr,")
	e.f("  input [%d:0] mem_rdata,", w-1)
	e.f("  output [%d:0] mem_wdata,", w-1)
	e.f("  output [%d:0] pc_out", w-1)
	e.f(");")
	// Fetch / decode registers.
	e.f("  reg [%d:0] pc;", w-1)
	e.f("  reg [15:0] ir;")
	e.f("  reg [%d:0] rs1_v, rs2_v;", w-1)
	e.f("  reg [3:0] op_ex;")
	e.f("  reg [1:0] rd_ex, rd_mem, rd_wb;")
	e.f("  reg [%d:0] alu_mem, wb_v;", w-1)
	for r := 0; r < nRegs; r++ {
		e.f("  reg [%d:0] x%d;", w-1, r)
	}
	// Decode.
	e.f("  wire [1:0] rs1 = ir[1:0];")
	e.f("  wire [1:0] rs2 = ir[3:2];")
	e.f("  wire [1:0] rd  = ir[5:4];")
	e.f("  wire [3:0] opc = ir[9:6];")
	e.f("  wire [%d:0] imm = {%d'd0, ir[15:10]};", w-1, w-6)
	// Register read with mux.
	e.f("  wire [%d:0] r1 = rs1 == 2'd0 ? x0 : rs1 == 2'd1 ? x1 : rs1 == 2'd2 ? x2 : x3;", w-1)
	e.f("  wire [%d:0] r2 = rs2 == 2'd0 ? x0 : rs2 == 2'd1 ? x1 : rs2 == 2'd2 ? x2 : x3;", w-1)
	// Bypass network (EX/MEM/WB -> decode).
	e.f("  wire [%d:0] b1 = rd_mem == rs1 ? alu_mem : rd_wb == rs1 ? wb_v : r1;", w-1)
	e.f("  wire [%d:0] b2 = rd_mem == rs2 ? alu_mem : rd_wb == rs2 ? wb_v : r2;", w-1)
	// Execute stage ALU.
	e.f("  reg [%d:0] alu;", w-1)
	shW := 3
	for (1 << shW) < w {
		shW++
	}
	e.f("  wire [%d:0] shamt = rs2_v[%d:0];", shW-1, shW-1)
	e.f("  always @(*) begin")
	e.f("    case (op_ex)")
	e.f("      4'd0: alu = rs1_v + rs2_v;")
	e.f("      4'd1: alu = rs1_v - rs2_v;")
	e.f("      4'd2: alu = rs1_v & rs2_v;")
	e.f("      4'd3: alu = rs1_v | rs2_v;")
	e.f("      4'd4: alu = rs1_v ^ rs2_v;")
	e.f("      4'd5: alu = rs1_v << shamt;")
	e.f("      4'd6: alu = rs1_v >> shamt;")
	if rocket {
		e.f("      4'd7: alu = rs1_v[%d:0] * rs2_v[%d:0];", w/2-1, w/2-1)
		e.f("      4'd8: alu = {%d'd0, rs1_v < rs2_v};", w-1)
		e.f("      4'd9: alu = rs1_v + (rs2_v << 2);")
	} else {
		e.f("      4'd7: alu = {%d'd0, rs1_v < rs2_v};", w-1)
		e.f("      4'd8: alu = rs1_v + (rs2_v << 1);")
	}
	e.f("      default: alu = rs2_v;")
	e.f("    endcase")
	e.f("  end")
	// Branch unit.
	// Scale-dependent auxiliary lanes (MAC/checksum units) so larger specs
	// genuinely grow.
	lanes := spec.Scale - 1
	for l := 0; l < lanes; l++ {
		e.f("  reg [%d:0] lane%d;", w-1, l)
		switch l % 3 {
		case 0:
			e.f("  wire [%d:0] lane%d_n = lane%d + (b1 ^ b2);", w-1, l, l)
		case 1:
			e.f("  wire [%d:0] lane%d_n = lane%d ^ (b1[%d:0] * b2[%d:0]);", w-1, l, l, w/2-1, w/2-1)
		default:
			e.f("  wire [%d:0] lane%d_n = (lane%d << 1) + b1;", w-1, l, l)
		}
	}
	e.f("  wire take = op_ex == 4'd10 && rs1_v == rs2_v;")
	e.f("  wire [%d:0] pc_next = take ? pc + {%d'd0, ir[15:10]} : pc + %d'd2;", w-1, w-6, w)
	e.f("  always @(posedge clk) begin")
	e.f("    if (rst) begin")
	e.f("      pc <= %d'd0;", w)
	e.f("      ir <= 16'd0;")
	e.f("      rs1_v <= %d'd0; rs2_v <= %d'd0;", w, w)
	e.f("      op_ex <= 4'd0; rd_ex <= 2'd0; rd_mem <= 2'd0; rd_wb <= 2'd0;")
	e.f("      alu_mem <= %d'd0; wb_v <= %d'd0;", w, w)
	e.f("      x0 <= %d'd0; x1 <= %d'd0; x2 <= %d'd0; x3 <= %d'd0;", w, w, w, w)
	for l := 0; l < lanes; l++ {
		e.f("      lane%d <= %d'd0;", l, w)
	}
	e.f("    end else begin")
	e.f("      pc <= pc_next;")
	e.f("      ir <= instr;")
	e.f("      rs1_v <= b1;")
	e.f("      rs2_v <= opc[3] ? imm : b2;")
	e.f("      op_ex <= opc;")
	e.f("      rd_ex <= rd;")
	e.f("      rd_mem <= rd_ex;")
	e.f("      alu_mem <= alu;")
	e.f("      rd_wb <= rd_mem;")
	e.f("      wb_v <= op_ex == 4'd11 ? mem_rdata : alu_mem;")
	for l := 0; l < lanes; l++ {
		e.f("      lane%d <= lane%d_n;", l, l)
	}
	e.f("      case (rd_wb)")
	e.f("        2'd0: x0 <= wb_v;")
	e.f("        2'd1: x1 <= wb_v;")
	e.f("        2'd2: x2 <= wb_v;")
	e.f("        default: x3 <= wb_v;")
	e.f("      endcase")
	e.f("    end")
	e.f("  end")
	if lanes > 0 {
		parts := make([]string, lanes)
		for l := 0; l < lanes; l++ {
			parts[l] = fmt.Sprintf("lane%d", l)
		}
		e.f("  assign mem_wdata = alu_mem ^ %s;", strings.Join(parts, " ^ "))
	} else {
		e.f("  assign mem_wdata = alu_mem;")
	}
	e.f("  assign pc_out = pc;")
	e.f("endmodule")
	return e.b.String()
}

// ---- crossbar interconnect (conmax) ----

func genCrossbar(spec Spec, rng *rand.Rand) string {
	e := &emitter{}
	w := 8 + 4*spec.Scale
	nm := 3 + spec.Scale // masters
	ns := 3 + spec.Scale // slaves
	e.f("// %s: %dx%d crossbar with priority arbitration (%d-bit)", spec.Name, nm, ns, w)
	e.f("module %s(", spec.Name)
	e.f("  input clk,")
	e.f("  input rst,")
	for m := 0; m < nm; m++ {
		e.f("  input [%d:0] m%d_data,", w-1, m)
		e.f("  input [2:0] m%d_sel,", m)
		e.f("  input m%d_req,", m)
	}
	for s := 0; s < ns; s++ {
		e.f("  output [%d:0] s%d_data%s", w-1, s, comma(s < ns-1))
	}
	e.f(");")
	for s := 0; s < ns; s++ {
		e.f("  reg [%d:0] s%d_r;", w-1, s)
		// Priority arbitration: lowest master index wins.
		expr := fmt.Sprintf("%d'd0", w)
		for m := nm - 1; m >= 0; m-- {
			expr = fmt.Sprintf("(m%d_req && m%d_sel == 3'd%d) ? m%d_data : %s", m, m, s%8, m, expr)
		}
		e.f("  wire [%d:0] s%d_mux = %s;", w-1, s, expr)
		e.f("  assign s%d_data = s%d_r;", s, s)
	}
	// Round-robin-ish grant state to deepen the control logic.
	e.f("  reg [2:0] grant;")
	e.f("  wire [2:0] grant_next = grant + 3'd1;")
	e.f("  always @(posedge clk) begin")
	e.f("    if (rst) begin")
	e.f("      grant <= 3'd0;")
	for s := 0; s < ns; s++ {
		e.f("      s%d_r <= %d'd0;", s, w)
	}
	e.f("    end else begin")
	e.f("      grant <= grant_next;")
	for s := 0; s < ns; s++ {
		e.f("      s%d_r <= s%d_mux ^ {%d'd0, grant};", s, s, w-3)
	}
	e.f("    end")
	e.f("  end")
	e.f("endmodule")
	return e.b.String()
}

func comma(yes bool) string {
	if yes {
		return ","
	}
	return ""
}

// ---- floating-point datapath (FPU) ----

func genFPU(spec Spec, rng *rand.Rand) string {
	e := &emitter{}
	mant := 8 + 2*spec.Scale // mantissa width
	exp := 5
	e.f("// %s: floating-point add/mul pipeline (mantissa %d, exponent %d)", spec.Name, mant, exp)
	e.f("module %s(", spec.Name)
	e.f("  input clk,")
	e.f("  input rst,")
	e.f("  input [%d:0] a_mant,", mant-1)
	e.f("  input [%d:0] a_exp,", exp-1)
	e.f("  input [%d:0] b_mant,", mant-1)
	e.f("  input [%d:0] b_exp,", exp-1)
	e.f("  input mul_op,")
	e.f("  output [%d:0] r_mant,", mant-1)
	e.f("  output [%d:0] r_exp", exp-1)
	e.f(");")
	// Stage 1: exponent compare & align.
	e.f("  reg [%d:0] big_m, small_m;", mant-1)
	e.f("  reg [%d:0] big_e;", exp-1)
	e.f("  reg [%d:0] diff_r;", exp-1)
	e.f("  reg mul_s1;")
	e.f("  wire a_ge = a_exp >= b_exp;")
	e.f("  wire [%d:0] ediff = a_ge ? a_exp - b_exp : b_exp - a_exp;", exp-1)
	// Stage 2: align + add or multiply.
	e.f("  reg [%d:0] sum_r;", mant)
	e.f("  reg [%d:0] prod_r;", 2*mant-1)
	e.f("  reg [%d:0] e_s2;", exp-1)
	e.f("  reg mul_s2;")
	e.f("  wire [%d:0] aligned = small_m >> diff_r;", mant-1)
	e.f("  wire [%d:0] sum = {1'b0, big_m} + {1'b0, aligned};", mant)
	e.f("  wire [%d:0] prod = big_m * small_m;", 2*mant-1)
	// Stage 3: normalize via priority encoder.
	e.f("  reg [%d:0] out_m;", mant-1)
	e.f("  reg [%d:0] out_e;", exp-1)
	// Leading-one detector over the sum.
	e.f("  reg [2:0] lz;")
	e.f("  always @(*) begin")
	e.f("    if (sum_r[%d]) lz = 3'd0;", mant)
	e.f("    else if (sum_r[%d]) lz = 3'd1;", mant-1)
	e.f("    else if (sum_r[%d]) lz = 3'd2;", mant-2)
	e.f("    else if (sum_r[%d]) lz = 3'd3;", mant-3)
	e.f("    else lz = 3'd4;")
	e.f("  end")
	e.f("  always @(posedge clk) begin")
	e.f("    if (rst) begin")
	e.f("      big_m <= %d'd0; small_m <= %d'd0; big_e <= %d'd0; diff_r <= %d'd0;", mant, mant, exp, exp)
	e.f("      mul_s1 <= 1'b0; mul_s2 <= 1'b0;")
	e.f("      sum_r <= %d'd0; prod_r <= %d'd0; e_s2 <= %d'd0;", mant+1, 2*mant, exp)
	e.f("      out_m <= %d'd0; out_e <= %d'd0;", mant, exp)
	e.f("    end else begin")
	e.f("      big_m <= a_ge ? a_mant : b_mant;")
	e.f("      small_m <= a_ge ? b_mant : a_mant;")
	e.f("      big_e <= a_ge ? a_exp : b_exp;")
	e.f("      diff_r <= ediff;")
	e.f("      mul_s1 <= mul_op;")
	e.f("      sum_r <= sum;")
	e.f("      prod_r <= prod;")
	e.f("      e_s2 <= big_e;")
	e.f("      mul_s2 <= mul_s1;")
	e.f("      if (mul_s2) begin")
	e.f("        out_m <= prod_r[%d:%d];", 2*mant-1, mant)
	e.f("        out_e <= e_s2 + %d'd%d;", exp, mant/2)
	e.f("      end else begin")
	e.f("        out_m <= sum_r[%d:0] << lz;", mant-1)
	e.f("        out_e <= e_s2 - {%d'd0, lz};", exp-3)
	e.f("      end")
	e.f("    end")
	e.f("  end")
	e.f("  assign r_mant = out_m;")
	e.f("  assign r_exp = out_e;")
	e.f("endmodule")
	return e.b.String()
}

// ---- MAC-heavy DSP (Marax) ----

func genMAC(spec Spec, rng *rand.Rand) string {
	e := &emitter{}
	w := 6 + 2*spec.Scale
	lanes := 2 + spec.Scale
	e.f("// %s: %d-lane multiply-accumulate DSP (%d-bit)", spec.Name, lanes, w)
	e.f("module %s(", spec.Name)
	e.f("  input clk,")
	e.f("  input rst,")
	e.f("  input [%d:0] xin,", w-1)
	e.f("  input [%d:0] coef,", w-1)
	e.f("  output [%d:0] yout", 2*w-1)
	e.f(");")
	for l := 0; l < lanes; l++ {
		e.f("  reg [%d:0] tap%d;", w-1, l)
		e.f("  reg [%d:0] mac%d;", 2*w-1, l)
	}
	e.f("  reg [%d:0] acc;", 2*w-1)
	for l := 0; l < lanes; l++ {
		src := "xin"
		if l > 0 {
			src = fmt.Sprintf("tap%d", l-1)
		}
		rot := rng.Intn(w-1) + 1
		e.f("  wire [%d:0] c%d = {coef[%d:0], coef[%d:%d]};", w-1, l, rot-1, w-1, rot)
		e.f("  wire [%d:0] p%d = %s * c%d;", 2*w-1, l, src, l)
	}
	e.f("  always @(posedge clk) begin")
	e.f("    if (rst) begin")
	for l := 0; l < lanes; l++ {
		e.f("      tap%d <= %d'd0; mac%d <= %d'd0;", l, w, l, 2*w)
	}
	e.f("      acc <= %d'd0;", 2*w)
	e.f("    end else begin")
	e.f("      tap0 <= xin;")
	for l := 1; l < lanes; l++ {
		e.f("      tap%d <= tap%d;", l, l-1)
	}
	for l := 0; l < lanes; l++ {
		e.f("      mac%d <= mac%d + p%d;", l, l, l)
	}
	parts := make([]string, lanes)
	for l := 0; l < lanes; l++ {
		parts[l] = fmt.Sprintf("mac%d", l)
	}
	e.f("      acc <= %s;", strings.Join(parts, " + "))
	e.f("    end")
	e.f("  end")
	e.f("  assign yout = acc;")
	e.f("endmodule")
	return e.b.String()
}
