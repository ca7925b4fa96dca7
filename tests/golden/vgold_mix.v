// Structural netlist "vgold mix" emitted by lis
module vgold_mix (
  clk,
  rst,
  a,
  da_ta,
  case_2,
  en,
  y,
  q0,
  k1
);
  input wire clk;
  input wire rst;
  input wire a;
  input wire da_ta;
  input wire case_2;
  input wire en;
  output wire y;
  output wire q0;
  output wire k1;

  reg cnt_0;
  reg cnt_1;
  wire n7;
  wire n8;
  wire n9;
  wire n10;
  wire n11;
  wire n12;
  wire n13;
  wire n14;

  assign n7 = ~cnt_0;
  assign n8 = cnt_1 ^ cnt_0;
  assign n9 = cnt_1 & cnt_0;
  assign n10 = a & da_ta;
  assign n11 = n10 ^ cnt_0;
  assign n12 = ~cnt_1;
  assign n13 = case_2 ? n12 : n11;
  assign n14 = n13 | cnt_0;
  always @(posedge clk) begin
    if (rst) cnt_0 <= 1'b1;
    else if (en) cnt_0 <= n7;
  end
  always @(posedge clk) begin
    if (rst) cnt_1 <= 1'b0;
    else if (en) cnt_1 <= n8;
  end
  assign y = n14;
  assign q0 = cnt_0;
  assign k1 = 1'b1;
endmodule
